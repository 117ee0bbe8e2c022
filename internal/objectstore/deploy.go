package objectstore

import (
	"context"
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
// already deployed are skipped (idempotent redeploy). A manifest that cannot
// be read or deployed does not stop the others: every good one is deployed,
// and the error names every bad one. It returns the number of newly deployed
// filters.
func DeployStorlets(ctx context.Context, client Client, account string, engine *storlet.Engine) (int, error) {
	list, err := client.ListObjects(ctx, account, StorletContainer, "")
	if err != nil {
		if IsNotFound(err) {
			return 0, nil // no manifests for this account
		}
		return 0, err
	}
	deployed := 0
	var errs []error
	for _, obj := range list {
		if err := deployOne(ctx, client, account, obj.Name, engine); err != nil {
			if !errors.Is(err, storlet.ErrAlreadyDeployed) {
				errs = append(errs, fmt.Errorf("deploy %s: %w", obj.Name, err))
			}
			continue
		}
		deployed++
	}
	return deployed, errors.Join(errs...)
}

// deployOne reads one manifest object and deploys it into the engine.
func deployOne(ctx context.Context, client Client, account, name string, engine *storlet.Engine) error {
	rc, _, err := client.GetObject(ctx, account, StorletContainer, name, GetOptions{})
	if err != nil {
		return err
	}
	data, err := io.ReadAll(io.LimitReader(rc, 1<<20))
	rc.Close()
	if err != nil {
		return err
	}
	return engine.DeployManifest(data)
}
