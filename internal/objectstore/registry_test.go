package objectstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
)

// putHookStore calls hook before every Put reaches the wrapped store.
type putHookStore struct {
	Store
	hook func()
}

func (s *putHookStore) Put(ctx context.Context, info ObjectInfo, r io.Reader) (ObjectInfo, error) {
	s.hook()
	return s.Store.Put(ctx, info, r)
}

// TestPutRacingContainerDelete: a container deleted while a PUT writes its
// replicas fails the PUT at the registry commit. The write is never
// acknowledged, HEAD finds nothing, and the replicas already written are
// removed again.
func TestPutRacingContainerDelete(t *testing.T) {
	ctx := context.Background()
	var (
		cluster *Cluster
		once    sync.Once
		delErr  error
	)
	cluster, err := NewCluster(ClusterConfig{
		Proxies: 1, ObjectNodes: 3, DisksPerNode: 1, Replicas: 3, PartPower: 4,
		StoreWrap: func(_ string, s Store) Store {
			return &putHookStore{Store: s, hook: func() {
				// The first replica write: the container is still empty, so
				// the delete is legal.
				once.Do(func() { delErr = cluster.Client().DeleteContainer(ctx, "gp", "c") })
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	client := cluster.Client()
	if err := client.CreateContainer(ctx, "gp", "c", nil); err != nil {
		t.Fatal(err)
	}
	info, err := client.PutObject(ctx, "gp", "c", "obj", bytes.NewReader(testPayload(1024)), nil)
	if delErr != nil {
		t.Fatalf("racing DeleteContainer: %v", delErr)
	}
	if !errors.Is(err, ErrContainerNotFound) {
		t.Fatalf("PUT into a container deleted mid-replication: got (%+v, %v), want ErrContainerNotFound", info, err)
	}
	if got, err := client.HeadObject(ctx, "gp", "c", "obj"); err == nil {
		t.Fatalf("HEAD after the failed PUT found %+v", got)
	}
	for _, n := range cluster.Nodes() {
		if got, err := n.Head(ctx, "/gp/c/obj"); err == nil {
			t.Errorf("node %s still holds a replica of the failed PUT: %+v", n.Name(), got)
		}
	}
}
