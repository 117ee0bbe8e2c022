package objectstore

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// putVersion re-PUTs gp/c/<object> with a distinct payload while the named
// replica is down, so that replica misses the version and a repair record is
// filed for it.
func putVersion(t *testing.T, cluster *Cluster, object string, version int, down *Node) {
	t.Helper()
	down.SetDown(true)
	defer down.SetDown(false)
	payload := bytes.Repeat([]byte(fmt.Sprintf("v%d-", version)), 256)
	if _, err := cluster.Client().PutObject(context.Background(), "gp", "c", object, bytes.NewReader(payload), nil); err != nil {
		t.Fatalf("PUT v%d with %s down: %v", version, down.Name(), err)
	}
}

// checkRepaired runs ONE repair pass and asserts what the reconciler
// promises: the queue is empty and every node of the object's placement
// holds the registry-committed version — never an older one a superseded
// record would have copied.
func checkRepaired(t *testing.T, cluster *Cluster, object string, records int) {
	t.Helper()
	ctx := context.Background()
	if got := len(cluster.RepairRecords()); got != records {
		t.Fatalf("repair records before the pass = %d, want %d", got, records)
	}
	if n, err := cluster.RunRepairs(ctx); err != nil || n != records {
		t.Fatalf("RunRepairs = %d, %v; want %d, nil", n, err, records)
	}
	if left := cluster.RepairRecords(); len(left) != 0 {
		t.Fatalf("repair queue not drained: %v", left)
	}
	if got := cluster.Metrics().Gauge("proxy.repair.pending").Load(); got != 0 {
		t.Errorf("proxy.repair.pending = %d, want 0", got)
	}
	committed, err := cluster.Client().HeadObject(ctx, "gp", "c", object)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range replicasOf(t, cluster, object) {
		have, err := node.Head(ctx, "/gp/c/"+object)
		if err != nil {
			t.Fatalf("%s misses the object after repair: %v", node.Name(), err)
		}
		if have.ETag != committed.ETag {
			t.Errorf("%s holds etag %s after repair, want committed %s", node.Name(), have.ETag, committed.ETag)
		}
	}
}

// TestRepairNeverWritesSupersededVersion: PUT v2 misses replica C, PUT v3
// misses replica A. The first record (fill C) is superseded — C already
// holds v3 — and repairing it from "the first readable replica" (A, still on
// v2) would overwrite C's good copy with the old version while reporting
// success. The registry-ETag guard makes the pass land v3 everywhere.
func TestRepairNeverWritesSupersededVersion(t *testing.T) {
	cluster, _ := newSickCluster(t)
	replicas := replicasOf(t, cluster, "obj")
	a, c := replicas[0], replicas[2]
	if _, err := cluster.Client().PutObject(context.Background(), "gp", "c", "obj", bytes.NewReader([]byte("v1")), nil); err != nil {
		t.Fatal(err)
	}
	putVersion(t, cluster, "obj", 2, c)
	putVersion(t, cluster, "obj", 3, a)
	checkRepaired(t, cluster, "obj", 2)
}

// TestRepairDuringMigrationWindowSkipsOldEpochSource is the mirror case
// with a migration window open: the read placement then also names an
// old-epoch node still holding v1, one more stale source the guard must
// refuse. The repair pass runs before any migration pass.
func TestRepairDuringMigrationWindowSkipsOldEpochSource(t *testing.T) {
	cluster, objects := newLiveCluster(t, liveConfig(), 24)
	ctx := context.Background()
	if _, err := cluster.AddNode(ctx, ""); err != nil {
		t.Fatal(err)
	}
	// Pick an object whose partition moved: its read placement is wider
	// than its write placement while the window is open.
	object := ""
	for name := range objects {
		cur, _ := cluster.Ring().NodesFor("/gp/c/" + name)
		union, _ := cluster.Ring().NodesForRead("/gp/c/" + name)
		if len(union) > len(cur) && (object == "" || name < object) {
			object = name
		}
	}
	if object == "" {
		t.Fatal("AddNode moved no partition holding an object")
	}
	replicas := replicasOf(t, cluster, object)
	putVersion(t, cluster, object, 2, replicas[2])
	putVersion(t, cluster, object, 3, replicas[0])
	if !cluster.Ring().Migrating() {
		t.Fatal("migration window closed before the repair pass")
	}
	checkRepaired(t, cluster, object, 2)
	converge(t, cluster)
	checkRepaired(t, cluster, object, 0)
}

// TestWriteQuorumRule pins the one quorum rule the PUT path and the handoff
// check share: a configured quorum wins, capped at the replica count;
// unconfigured means a majority.
func TestWriteQuorumRule(t *testing.T) {
	for _, tc := range []struct{ replicas, configured, want int }{
		{1, 0, 1}, {2, 0, 2}, {3, 0, 2}, {4, 0, 3}, {5, 0, 3},
		{3, 1, 1}, {3, 2, 2}, {3, 3, 3}, {3, 4, 3}, {3, -1, 2},
		{2, 3, 2}, {1, 3, 1}, {5, 2, 2},
	} {
		if got := writeQuorum(tc.replicas, tc.configured); got != tc.want {
			t.Errorf("writeQuorum(%d replicas, configured %d) = %d, want %d", tc.replicas, tc.configured, got, tc.want)
		}
	}
}

// TestHandoffHonoursConfiguredQuorum: with WriteQuorum 3 a PUT needs all
// three replicas, so a handoff must not drop its sources at two either.
func TestHandoffHonoursConfiguredQuorum(t *testing.T) {
	cfg := liveConfig()
	cfg.WriteQuorum = 3
	cluster, objects := newLiveCluster(t, cfg, 12)
	ctx := context.Background()
	var object string
	for name := range objects {
		if object == "" || name < object {
			object = name
		}
	}
	path := "/gp/c/" + object
	committed, _ := cluster.reg.InfoByPath(path)
	if err := cluster.verifyHandoff(ctx, path, committed.ETag); err != nil {
		t.Fatalf("fully replicated object fails its handoff check: %v", err)
	}
	replicasOf(t, cluster, object)[1].SetDown(true)
	if err := cluster.verifyHandoff(ctx, path, committed.ETag); err == nil {
		t.Error("handoff verified with 2/3 replicas under WriteQuorum 3")
	}
}
