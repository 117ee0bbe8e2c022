package objectstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is the namespace tier: accounts, containers with their policies,
// and the committed version of every object. Swift keeps this on the
// account/container rings of its metadata servers (the paper's testbed runs
// 6 of them over 60 disks), not in the object proxy. It serves the five
// namespace operations of Client itself; the proxies' data path reaches it
// only through policy, commit and remove, and the reconciler through
// AllObjects and InfoByPath. No other code touches its lock or maps.
type Registry struct {
	mu       sync.RWMutex
	accounts map[string]*accountState
}

type accountState struct {
	containers map[string]*containerState
}

type containerState struct {
	policy  ContainerPolicy
	objects map[string]ObjectInfo
}

// NewRegistry returns an empty metadata registry.
func NewRegistry() *Registry {
	return &Registry{accounts: make(map[string]*accountState)}
}

// errInvalidName is the error of a name validateName refuses.
var errInvalidName = errors.New("objectstore: invalid name")

func validateName(s string) error {
	if s == "" || strings.ContainsAny(s, "/ \t\n") {
		return fmt.Errorf("%w %q", errInvalidName, s)
	}
	return nil
}

// containerLocked resolves a container; the caller holds r.mu.
func (r *Registry) containerLocked(account, container string) (*containerState, error) {
	acc, ok := r.accounts[account]
	if !ok {
		return nil, ErrContainerNotFound
	}
	cs, ok := acc.containers[container]
	if !ok {
		return nil, ErrContainerNotFound
	}
	return cs, nil
}

// CreateContainer implements Client.
func (r *Registry) CreateContainer(_ context.Context, account, container string, policy *ContainerPolicy) error {
	if err := validateName(account); err != nil {
		return err
	}
	if err := validateName(container); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	acc, ok := r.accounts[account]
	if !ok {
		acc = &accountState{containers: make(map[string]*containerState)}
		r.accounts[account] = acc
	}
	if _, dup := acc.containers[container]; dup {
		return ErrContainerExists
	}
	cs := &containerState{objects: make(map[string]ObjectInfo)}
	if policy != nil {
		cs.policy = *policy
	}
	acc.containers[container] = cs
	return nil
}

// HeadObject implements Client: the committed version's metadata.
func (r *Registry) HeadObject(_ context.Context, account, container, object string) (ObjectInfo, error) {
	return r.lookup(account, container, object)
}

func (r *Registry) lookup(account, container, object string) (ObjectInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cs, err := r.containerLocked(account, container)
	if err != nil {
		return ObjectInfo{}, err
	}
	info, ok := cs.objects[object]
	if !ok {
		return ObjectInfo{}, ErrNotFound
	}
	return info, nil
}

// ListObjects implements Client from the container index (Swift keeps
// container listings on the metadata tier, not on object servers).
func (r *Registry) ListObjects(_ context.Context, account, container, prefix string) ([]ObjectInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cs, err := r.containerLocked(account, container)
	if err != nil {
		return nil, err
	}
	var out []ObjectInfo
	for name, info := range cs.objects {
		if strings.HasPrefix(name, prefix) {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ListContainers implements Client.
func (r *Registry) ListContainers(_ context.Context, account string) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	acc, ok := r.accounts[account]
	if !ok {
		return nil, ErrContainerNotFound
	}
	out := make([]string, 0, len(acc.containers))
	for name := range acc.containers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// DeleteContainer implements Client.
func (r *Registry) DeleteContainer(_ context.Context, account, container string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs, err := r.containerLocked(account, container)
	if err != nil {
		return err
	}
	if len(cs.objects) > 0 {
		return fmt.Errorf("%w: %d objects remain", ErrContainerNotEmpty, len(cs.objects))
	}
	delete(r.accounts[account].containers, container)
	return nil
}

// policy returns a container's policy; it fails with ErrContainerNotFound
// for a container that does not exist.
func (r *Registry) policy(account, container string) (ContainerPolicy, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cs, err := r.containerLocked(account, container)
	if err != nil {
		return ContainerPolicy{}, err
	}
	return cs.policy, nil
}

// commit makes info the object's committed version — the PUT's commit
// point. The container is looked up again here, not at the start of the
// PUT: if it was deleted while the replicas were written, commit fails with
// an error wrapping ErrContainerNotFound and the caller un-lands its
// replicas.
func (r *Registry) commit(info ObjectInfo) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs, err := r.containerLocked(info.Account, info.Container)
	if err != nil {
		return fmt.Errorf("objectstore: put %s: %w", info.Path(), err)
	}
	cs.objects[info.Name] = info
	return nil
}

// remove drops an object's committed version; a missing container or
// object is a no-op.
func (r *Registry) remove(account, container, object string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cs, err := r.containerLocked(account, container); err == nil {
		delete(cs.objects, object)
	}
}

// AllObjects snapshots every committed object's metadata across all
// accounts and containers, sorted by ring path — the reconciler's work list.
func (r *Registry) AllObjects() []ObjectInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []ObjectInfo
	for _, acc := range r.accounts {
		for _, cs := range acc.containers {
			for _, info := range cs.objects {
				out = append(out, info)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path() < out[j].Path() })
	return out
}

// InfoByPath resolves a "/account/container/object" ring key to its
// committed metadata.
func (r *Registry) InfoByPath(path string) (ObjectInfo, bool) {
	parts := strings.SplitN(strings.TrimPrefix(path, "/"), "/", 3)
	if len(parts) != 3 {
		return ObjectInfo{}, false
	}
	info, err := r.lookup(parts[0], parts[1], parts[2])
	return info, err == nil
}
