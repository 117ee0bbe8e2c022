package objectstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"scoop/internal/storlet"
)

// StorletContainer is the reserved per-account container holding filter
// manifests — the paper's "deploy it as a regular object" workflow: an
// administrator PUTs a manifest into .storlets and the engine picks it up.
const StorletContainer = ".storlets"

// DeployStorlets reads every manifest object in the account's .storlets
// container and deploys it into the engine. Manifests whose filter name is
// already deployed are skipped (idempotent redeploy). A manifest naming a
// pipeline another manifest here defines is deployed after it, whatever the
// objects' names, so that deploy inlines it rather than keeping a forward
// reference every invocation would refuse; manifests left in a cycle deploy
// in name order and are refused as the engine refuses cycles. A manifest
// that cannot be read or deployed does not stop the others: every good one
// is deployed, and the error names every bad one. It returns the number of
// newly deployed filters.
func DeployStorlets(ctx context.Context, client Client, account string, engine *storlet.Engine) (int, error) {
	list, err := client.ListObjects(ctx, account, StorletContainer, "")
	if err != nil {
		if IsNotFound(err) {
			return 0, nil // no manifests for this account
		}
		return 0, err
	}
	var errs []error
	var pending []manifestObject
	for _, obj := range list {
		data, err := readManifest(ctx, client, account, obj.Name)
		if err != nil {
			errs = append(errs, fmt.Errorf("deploy %s: %w", obj.Name, err))
			continue
		}
		m := manifestObject{name: obj.Name, data: data}
		_ = json.Unmarshal(data, &m.Manifest) // DeployManifest reports a bad one
		pending = append(pending, m)
	}
	deployed := 0
	for _, m := range dependencyOrder(pending) {
		if err := engine.DeployManifest(m.data); err != nil {
			if !errors.Is(err, storlet.ErrAlreadyDeployed) {
				errs = append(errs, fmt.Errorf("deploy %s: %w", m.name, err))
			}
			continue
		}
		deployed++
	}
	return deployed, errors.Join(errs...)
}

// manifestObject is a manifest read from the object name.
type manifestObject struct {
	storlet.Manifest
	name string
	data []byte
}

// dependencyOrder orders manifests so that each follows those defining the
// pipelines its steps name, keeping name order among those free to go.
func dependencyOrder(pending []manifestObject) []manifestObject {
	var order []manifestObject
	for len(pending) > 0 {
		waiting := make(map[string]bool, len(pending))
		for _, m := range pending {
			waiting[m.Name] = true
		}
		var rest []manifestObject
		for _, m := range pending {
			if m.needs(waiting) {
				rest = append(rest, m)
			} else {
				order = append(order, m)
			}
		}
		if len(rest) == len(pending) {
			return append(order, rest...) // a cycle: the engine refuses it
		}
		pending = rest
	}
	return order
}

// needs reports whether a step of m names one of pipelines other than m.
func (m manifestObject) needs(pipelines map[string]bool) bool {
	for _, step := range m.Chain {
		if step.Filter != m.Name && pipelines[step.Filter] {
			return true
		}
	}
	return false
}

// readManifest reads one manifest object.
func readManifest(ctx context.Context, client Client, account, name string) ([]byte, error) {
	rc, _, err := client.GetObject(ctx, account, StorletContainer, name, GetOptions{})
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(io.LimitReader(rc, 1<<20))
}
