package objectstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scoop/internal/metrics"
)

// newLiveCluster builds a small cluster with a container and n committed
// objects, returning the cluster and the object payloads by name.
func newLiveCluster(t *testing.T, cfg ClusterConfig, n int) (*Cluster, map[string][]byte) {
	t.Helper()
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	ctx := context.Background()
	if err := cluster.Client().CreateContainer(ctx, "gp", "c", nil); err != nil {
		t.Fatal(err)
	}
	objects := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("obj-%03d", i)
		payload := []byte(strings.Repeat(fmt.Sprintf("row-%03d,", i), 64))
		if _, err := cluster.Client().PutObject(ctx, "gp", "c", name, bytes.NewReader(payload), nil); err != nil {
			t.Fatal(err)
		}
		objects[name] = payload
	}
	return cluster, objects
}

func liveConfig() ClusterConfig {
	return ClusterConfig{
		Proxies: 1, ObjectNodes: 3, DisksPerNode: 2, Replicas: 3, PartPower: 4,
	}
}

// readAllObjects GETs every object through the client and checks bytes.
func readAllObjects(t *testing.T, cluster *Cluster, objects map[string][]byte, when string) {
	t.Helper()
	ctx := context.Background()
	for name, want := range objects {
		rc, _, err := cluster.Client().GetObject(ctx, "gp", "c", name, GetOptions{})
		if err != nil {
			t.Fatalf("%s: GET %s: %v", when, name, err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatalf("%s: read %s: %v", when, name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %s: got %d bytes, want %d", when, name, len(got), len(want))
		}
	}
}

// converge drains the migration queue to empty, bounding the passes.
func converge(t *testing.T, cluster *Cluster) {
	t.Helper()
	ctx := context.Background()
	for pass := 0; pass < 20; pass++ {
		if _, err := cluster.RunMigrations(ctx); err != nil {
			t.Logf("migration pass %d: %v", pass, err)
		}
		if len(cluster.MigrationRecords()) == 0 && !cluster.Ring().Migrating() {
			return
		}
	}
	t.Fatalf("migration queue did not converge: %d records left, migrating=%v",
		len(cluster.MigrationRecords()), cluster.Ring().Migrating())
}

// checkFullReplication asserts every object is held, with the committed
// ETag, by every node of its (committed) partition placement.
func checkFullReplication(t *testing.T, cluster *Cluster, objects map[string][]byte) {
	t.Helper()
	ctx := context.Background()
	for name := range objects {
		path := "/gp/c/" + name
		want, ok := cluster.reg.InfoByPath(path)
		if !ok {
			t.Fatalf("%s missing from registry", path)
		}
		part := cluster.Ring().Partition(path)
		for _, nodeName := range cluster.Ring().PartitionNodes(part) {
			node, ok := cluster.Members().Get(nodeName)
			if !ok {
				t.Fatalf("placement of %s names non-member %s", path, nodeName)
			}
			have, err := node.Head(ctx, path)
			if err != nil {
				t.Fatalf("%s under-replicated: %s misses it: %v", path, nodeName, err)
			}
			if have.ETag != want.ETag {
				t.Fatalf("%s on %s: etag %s, want %s", path, nodeName, have.ETag, want.ETag)
			}
		}
	}
}

// TestAddNodeMigratesAndConverges: joining a node opens a migration window
// during which every object stays readable (dual-epoch union), and after
// the background migrator converges the new placement is fully replicated
// and the window is closed.
func TestAddNodeMigratesAndConverges(t *testing.T) {
	cluster, objects := newLiveCluster(t, liveConfig(), 24)
	ctx := context.Background()

	epoch0 := cluster.Ring().Epoch()
	name, err := cluster.AddNode(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if name != "object-03" {
		t.Fatalf("auto-name: got %s, want object-03", name)
	}
	if cluster.Ring().Epoch() != epoch0+1 {
		t.Fatalf("epoch: got %d, want %d", cluster.Ring().Epoch(), epoch0+1)
	}
	if !cluster.Ring().Migrating() {
		t.Fatal("expected an open migration window after AddNode")
	}
	if len(cluster.MigrationRecords()) == 0 {
		t.Fatal("expected queued migration records")
	}

	// Mid-window, before a single byte has moved: every GET must succeed
	// byte-identically via the old-epoch placements.
	readAllObjects(t, cluster, objects, "mid-window")

	// A write during the window goes to the NEW placement and must be
	// readable immediately and after convergence.
	fresh := []byte("written mid-migration window")
	if _, err := cluster.Client().PutObject(ctx, "gp", "c", "mid-window-put", bytes.NewReader(fresh), nil); err != nil {
		t.Fatal(err)
	}
	objects["mid-window-put"] = fresh
	readAllObjects(t, cluster, objects, "mid-window after put")

	converge(t, cluster)
	if cluster.Ring().Migrating() {
		t.Fatal("migration window still open after convergence")
	}
	readAllObjects(t, cluster, objects, "post-convergence")
	checkFullReplication(t, cluster, objects)

	// The new node actually received data.
	node, _ := cluster.Members().Get(name)
	infos, err := node.List(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("new node holds no objects after migration")
	}
	if got := cluster.Metrics().Gauge("migrate.partitions.pending").Load(); got != 0 {
		t.Fatalf("migrate.partitions.pending: got %d, want 0", got)
	}
	if got := cluster.Metrics().Gauge("ring.epoch").Load(); got != int64(cluster.Ring().Epoch()) {
		t.Fatalf("ring.epoch gauge: got %d, want %d", got, cluster.Ring().Epoch())
	}
}

// TestRemoveNodeReReplicates: removing a member immediately stops routing
// to it, keeps every object readable from the survivors, and the migrator
// restores full replication on the shrunken membership.
func TestRemoveNodeReReplicates(t *testing.T) {
	cluster, objects := newLiveCluster(t, ClusterConfig{
		Proxies: 1, ObjectNodes: 4, DisksPerNode: 2, Replicas: 3, PartPower: 4,
	}, 24)
	ctx := context.Background()

	victim := cluster.Nodes()[1].Name()
	if err := cluster.RemoveNode(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if _, ok := cluster.Members().Get(victim); ok {
		t.Fatalf("%s still a member after RemoveNode", victim)
	}
	// The removed node is gone as a source: reads mid-window must come from
	// surviving replicas only.
	readAllObjects(t, cluster, objects, "mid-window")
	converge(t, cluster)
	readAllObjects(t, cluster, objects, "post-convergence")
	checkFullReplication(t, cluster, objects)
	for _, name := range cluster.Members().Names() {
		if name == victim {
			t.Fatalf("%s re-appeared in membership", victim)
		}
	}
}

// TestDrainNodeDetachesOnCommit: a draining node keeps serving as a data
// source through the window and detaches exactly when the epoch commits.
func TestDrainNodeDetachesOnCommit(t *testing.T) {
	cluster, objects := newLiveCluster(t, liveConfig(), 16)
	ctx := context.Background()

	victim := cluster.Nodes()[0].Name()
	if err := cluster.DrainNode(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if _, ok := cluster.Members().Get(victim); !ok {
		t.Fatalf("%s left membership before its data moved", victim)
	}
	if got := cluster.Draining(); len(got) != 1 || got[0] != victim {
		t.Fatalf("Draining(): got %v, want [%s]", got, victim)
	}
	readAllObjects(t, cluster, objects, "mid-drain")
	converge(t, cluster)
	if _, ok := cluster.Members().Get(victim); ok {
		t.Fatalf("%s still a member after the drain committed", victim)
	}
	if got := cluster.Draining(); len(got) != 0 {
		t.Fatalf("Draining() after commit: got %v, want empty", got)
	}
	readAllObjects(t, cluster, objects, "post-drain")
	checkFullReplication(t, cluster, objects)
}

// TestMembershipChangeBlockedWhileMigrating: one migration window at a
// time — a second change is rejected with ErrMigrationInProgress until the
// window commits.
func TestMembershipChangeBlockedWhileMigrating(t *testing.T) {
	cluster, _ := newLiveCluster(t, liveConfig(), 8)
	ctx := context.Background()

	if _, err := cluster.AddNode(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.AddNode(ctx, ""); !errors.Is(err, ErrMigrationInProgress) {
		t.Fatalf("second AddNode: got %v, want ErrMigrationInProgress", err)
	}
	if err := cluster.RemoveNode(ctx, "object-00"); !errors.Is(err, ErrMigrationInProgress) {
		t.Fatalf("RemoveNode mid-window: got %v, want ErrMigrationInProgress", err)
	}
	if err := cluster.DrainNode(ctx, "object-00"); !errors.Is(err, ErrMigrationInProgress) {
		t.Fatalf("DrainNode mid-window: got %v, want ErrMigrationInProgress", err)
	}
	converge(t, cluster)
	if _, err := cluster.AddNode(ctx, ""); err != nil {
		t.Fatalf("AddNode after commit: %v", err)
	}
	converge(t, cluster)
}

// TestMembershipGuards: unknown node, last node, duplicate name.
func TestMembershipGuards(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		Proxies: 1, ObjectNodes: 1, DisksPerNode: 2, Replicas: 1, PartPower: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	if err := cluster.RemoveNode(ctx, "nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("RemoveNode(nope): got %v, want ErrUnknownNode", err)
	}
	if err := cluster.RemoveNode(ctx, "object-00"); !errors.Is(err, ErrLastNode) {
		t.Fatalf("RemoveNode(last): got %v, want ErrLastNode", err)
	}
	if err := cluster.DrainNode(ctx, "object-00"); !errors.Is(err, ErrLastNode) {
		t.Fatalf("DrainNode(last): got %v, want ErrLastNode", err)
	}
	if _, err := cluster.AddNode(ctx, "object-00"); err == nil {
		t.Fatal("AddNode(duplicate) succeeded")
	}
}

// TestMigrationRacingPut: a PUT that lands while the migrator is copying
// the same object must win — the registry re-read detects the new ETag and
// the copy pass redoes against it, so no stale version ever becomes a
// serving replica.
func TestMigrationRacingPut(t *testing.T) {
	cluster, objects := newLiveCluster(t, liveConfig(), 12)
	ctx := context.Background()

	if _, err := cluster.AddNode(ctx, ""); err != nil {
		t.Fatal(err)
	}
	// Race a PUT against the first migrated copy of each object, once.
	raced := make(map[string]bool)
	var racedPaths []string
	cluster.SetMigrationHook(func(path string) error {
		if raced[path] {
			return nil
		}
		raced[path] = true
		object := strings.TrimPrefix(path, "/gp/c/")
		if _, ok := objects[object]; !ok {
			return nil
		}
		fresh := []byte("raced:" + object)
		if _, err := cluster.Client().PutObject(ctx, "gp", "c", object, bytes.NewReader(fresh), nil); err != nil {
			return err
		}
		objects[object] = fresh
		racedPaths = append(racedPaths, path)
		return nil
	})
	converge(t, cluster)
	if len(racedPaths) == 0 {
		t.Fatal("hook never raced a PUT — test exercised nothing")
	}
	readAllObjects(t, cluster, objects, "post-race")
	checkFullReplication(t, cluster, objects)
}

// TestMigrationRacingDelete: an object deleted mid-window vanishes from
// the registry; the migrator must not resurrect it on the new placement.
func TestMigrationRacingDelete(t *testing.T) {
	cluster, objects := newLiveCluster(t, liveConfig(), 12)
	ctx := context.Background()

	if _, err := cluster.AddNode(ctx, ""); err != nil {
		t.Fatal(err)
	}
	deleted := make(map[string]bool)
	cluster.SetMigrationHook(func(path string) error {
		object := strings.TrimPrefix(path, "/gp/c/")
		if deleted[object] || len(deleted) >= 3 {
			return nil
		}
		deleted[object] = true
		return cluster.Client().DeleteObject(ctx, "gp", "c", object)
	})
	converge(t, cluster)
	if len(deleted) == 0 {
		t.Fatal("hook never deleted — test exercised nothing")
	}
	for object := range deleted {
		delete(objects, object)
		if _, _, err := cluster.Client().GetObject(ctx, "gp", "c", object, GetOptions{}); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted %s resurrected: err=%v", object, err)
		}
		path := "/gp/c/" + object
		for _, n := range cluster.Nodes() {
			if _, err := n.Head(ctx, path); err == nil {
				t.Fatalf("deleted %s still has a replica on %s", object, n.Name())
			}
		}
	}
	readAllObjects(t, cluster, objects, "post-delete")
	checkFullReplication(t, cluster, objects)
}

// probeStore makes a node's health probe switchable: Ping goes through
// Head, so failing Head fails the probe without touching the data path
// used by everyone else (data reads use Get).
type probeStore struct {
	Store
	dead atomic.Bool
}

func (s *probeStore) Head(ctx context.Context, path string) (ObjectInfo, error) {
	if s.dead.Load() && strings.HasSuffix(path, "/.probe/ping") {
		return ObjectInfo{}, errors.New("injected: node unreachable")
	}
	return s.Store.Head(ctx, path)
}

func newProbeCluster(t *testing.T, cfg ClusterConfig, n int) (*Cluster, map[string][]byte, map[string]*probeStore) {
	t.Helper()
	probes := make(map[string]*probeStore)
	cfg.StoreWrap = func(node string, s Store) Store {
		w := &probeStore{Store: s}
		probes[node] = w
		return w
	}
	cluster, objects := newLiveCluster(t, cfg, n)
	return cluster, objects, probes
}

// TestHealthCheckEjectsAfterThreshold: N consecutive probe failures eject;
// a success in between resets the streak (hysteresis).
func TestHealthCheckEjectsAfterThreshold(t *testing.T) {
	cfg := ClusterConfig{
		Proxies: 1, ObjectNodes: 4, DisksPerNode: 2, Replicas: 3, PartPower: 4,
		HealthFailThreshold: 3,
	}
	cluster, objects, probes := newProbeCluster(t, cfg, 16)
	ctx := context.Background()
	victim := cluster.Nodes()[2].Name()

	// Two failures, one recovery: streak resets, nothing ejected.
	probes[victim].dead.Store(true)
	for i := 0; i < 2; i++ {
		if ejected, err := cluster.RunHealthCheck(ctx); err != nil || len(ejected) != 0 {
			t.Fatalf("pass %d: ejected=%v err=%v", i, ejected, err)
		}
	}
	probes[victim].dead.Store(false)
	if _, err := cluster.RunHealthCheck(ctx); err != nil {
		t.Fatal(err)
	}
	probes[victim].dead.Store(true)
	for i := 0; i < 2; i++ {
		if ejected, err := cluster.RunHealthCheck(ctx); err != nil || len(ejected) != 0 {
			t.Fatalf("post-reset pass %d: ejected=%v err=%v (streak did not reset)", i, ejected, err)
		}
	}
	// Third consecutive failure: ejected.
	ejected, err := cluster.RunHealthCheck(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ejected) != 1 || ejected[0] != victim {
		t.Fatalf("ejected: got %v, want [%s]", ejected, victim)
	}
	if _, ok := cluster.Members().Get(victim); ok {
		t.Fatalf("%s still a member after eject", victim)
	}
	if got := cluster.Metrics().Counter("health.node.ejected").Load(); got != 1 {
		t.Fatalf("health.node.ejected: got %d, want 1", got)
	}
	converge(t, cluster)
	readAllObjects(t, cluster, objects, "post-eject")
	checkFullReplication(t, cluster, objects)
}

// TestHealthCheckDefersDuringMigration: a node that dies while a migration
// window is open is not ejected until the window commits — then the very
// next probe pass ejects it.
func TestHealthCheckDefersDuringMigration(t *testing.T) {
	cfg := ClusterConfig{
		Proxies: 1, ObjectNodes: 4, DisksPerNode: 2, Replicas: 3, PartPower: 4,
		HealthFailThreshold: 2,
	}
	cluster, _, probes := newProbeCluster(t, cfg, 8)
	ctx := context.Background()

	if _, err := cluster.AddNode(ctx, ""); err != nil {
		t.Fatal(err)
	}
	victim := cluster.Nodes()[3].Name()
	probes[victim].dead.Store(true)
	for i := 0; i < 4; i++ {
		ejected, err := cluster.RunHealthCheck(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ejected) != 0 {
			t.Fatalf("ejected %v while a migration window is open", ejected)
		}
	}
	converge(t, cluster)
	ejected, err := cluster.RunHealthCheck(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ejected) != 1 || ejected[0] != victim {
		t.Fatalf("post-commit ejection: got %v, want [%s]", ejected, victim)
	}
	converge(t, cluster)
}

// TestBackgroundLoopsDriveConvergence: with intervals configured, AddNode
// converges with no manual RunMigrations calls, and Close stops the loops.
func TestBackgroundLoopsDriveConvergence(t *testing.T) {
	cfg := liveConfig()
	cfg.ReconcileInterval = 2 * time.Millisecond
	cfg.HealthInterval = 2 * time.Millisecond
	cfg.Seed = 42
	cluster, objects := newLiveCluster(t, cfg, 12)
	ctx := context.Background()

	if _, err := cluster.AddNode(ctx, ""); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cluster.Ring().Migrating() || len(cluster.MigrationRecords()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background migrator did not converge: %d records, migrating=%v",
				len(cluster.MigrationRecords()), cluster.Ring().Migrating())
		}
		time.Sleep(5 * time.Millisecond)
	}
	readAllObjects(t, cluster, objects, "background-converged")
	checkFullReplication(t, cluster, objects)
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

// TestRingEpochHeaders: the HTTP surface advertises the placement epoch and
// migration state, and the client tracks the drift centrally in doRetry.
func TestRingEpochHeaders(t *testing.T) {
	cluster, err := NewCluster(liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	handler := NewHandler(cluster.Client())
	handler.SetRingInfo(func() (uint64, bool) {
		return cluster.Ring().Epoch(), cluster.Ring().Migrating()
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()
	client := NewHTTPClient(srv.URL)
	client.Metrics = metrics.NewRegistry()
	ctx := context.Background()

	if err := client.CreateContainer(ctx, "gp", "c", nil); err != nil {
		t.Fatal(err)
	}
	if epoch, migrating := client.RingEpoch(); epoch != 1 || migrating {
		t.Fatalf("observed ring: epoch=%d migrating=%v, want 1/false", epoch, migrating)
	}
	if _, err := cluster.AddNode(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PutObject(ctx, "gp", "c", "o", strings.NewReader("x"), nil); err != nil {
		t.Fatal(err)
	}
	if epoch, migrating := client.RingEpoch(); epoch != 2 || !migrating {
		t.Fatalf("observed ring mid-window: epoch=%d migrating=%v, want 2/true", epoch, migrating)
	}
	if got := client.Metrics.Counter("client.ring.epoch_changes").Load(); got != 1 {
		t.Fatalf("client.ring.epoch_changes: got %d, want 1", got)
	}
	converge(t, cluster)
	if _, err := client.HeadObject(ctx, "gp", "c", "o"); err != nil {
		t.Fatal(err)
	}
	if epoch, migrating := client.RingEpoch(); epoch != 2 || migrating {
		t.Fatalf("observed ring post-commit: epoch=%d migrating=%v, want 2/false", epoch, migrating)
	}
}

// TestAdminRingAndNodes: the /admin/ring snapshot and /admin/nodes
// membership operations over HTTP.
func TestAdminRingAndNodes(t *testing.T) {
	cluster, _ := newLiveCluster(t, liveConfig(), 4)
	admin := NewAdminHandler(cluster)

	state := admin.RingState()
	if state.Epoch != 1 || state.Migrating || len(state.Nodes) != 3 {
		t.Fatalf("ring state: %+v", state)
	}
	srv := httptest.NewServer(admin)
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/admin/nodes?op=add", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("add: http %d", resp.StatusCode)
	}
	// Second membership change mid-window: 409.
	resp, err = srv.Client().Post(srv.URL+"/admin/nodes?op=remove&name=object-00", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("remove mid-window: http %d, want 409", resp.StatusCode)
	}
	state = admin.RingState()
	if !state.Migrating || state.Epoch != 2 || len(state.Nodes) != 4 || state.MigratePending == 0 {
		t.Fatalf("mid-window ring state: %+v", state)
	}
	converge(t, cluster)
	state = admin.RingState()
	if state.Migrating || state.MigratePending != 0 {
		t.Fatalf("post-commit ring state: %+v", state)
	}
}
