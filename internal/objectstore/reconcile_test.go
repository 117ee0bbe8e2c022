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

// migrationRecords returns the queued partition records.
func migrationRecords(cluster *Cluster) []ReconcileRecord { return queued(cluster, false) }

// repairRecords returns the queued one-object records.
func repairRecords(cluster *Cluster) []ReconcileRecord { return queued(cluster, true) }

func queued(cluster *Cluster, repairs bool) []ReconcileRecord {
	var out []ReconcileRecord
	for _, r := range cluster.Records() {
		if (r.Path != "") == repairs {
			out = append(out, r)
		}
	}
	return out
}

// checkRepaired runs ONE repair pass and asserts what the reconciler
// promises: the queue is empty and every node of the object's placement
// holds the registry-committed version — never an older one a superseded
// record would have copied.
func checkRepaired(t *testing.T, cluster *Cluster, object string, records int) {
	t.Helper()
	ctx := context.Background()
	if got := len(repairRecords(cluster)); got != records {
		t.Fatalf("repair records before the pass = %d, want %d", got, records)
	}
	if n, err := cluster.Reconcile(ctx); err != nil || n != records {
		t.Fatalf("Reconcile = %d, %v; want %d, nil", n, err, records)
	}
	if left := repairRecords(cluster); len(left) != 0 {
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

// TestRepairsWaitForTheMigrationWindow: PUT v2 and PUT v3 each miss one
// replica of an object whose partition moved, filing two repairs while a
// migration window is open. A pass takes only the partition records while
// any is queued: it moves exactly those, closes the window and leaves both
// repairs queued. The next pass lands v3 on every replica.
func TestRepairsWaitForTheMigrationWindow(t *testing.T) {
	cluster, objects := newLiveCluster(t, liveConfig(), 24)
	ctx := context.Background()
	joined, err := cluster.AddNode(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	object := movedObject(t, cluster, objects, joined)
	replicas := replicasOf(t, cluster, object)
	putVersion(t, cluster, object, 2, replicas[2])
	putVersion(t, cluster, object, 3, replicas[0])
	parts := len(migrationRecords(cluster))
	if n, err := cluster.Reconcile(ctx); err != nil || n != parts {
		t.Fatalf("first pass = %d, %v; want the %d partition records, nil", n, err, parts)
	}
	if cluster.Ring().Migrating() {
		t.Fatal("migration window still open after its partition records moved")
	}
	checkRepaired(t, cluster, object, 2)
}

// TestWriteQuorumRule pins the one quorum rule the PUT path and the handoff
// check share: a majority of the replicas.
func TestWriteQuorumRule(t *testing.T) {
	for _, tc := range []struct{ replicas, want int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3},
	} {
		if got := writeQuorum(tc.replicas); got != tc.want {
			t.Errorf("writeQuorum(%d replicas) = %d, want %d", tc.replicas, got, tc.want)
		}
	}
}

// TestHandoffHonoursConfiguredQuorum: a PUT commits at a majority of the
// replicas, so a handoff verifies with one of three replicas down and must
// not drop its sources with two down.
func TestHandoffHonoursConfiguredQuorum(t *testing.T) {
	cluster, objects := newLiveCluster(t, liveConfig(), 12)
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
	replicas := replicasOf(t, cluster, object)
	replicas[1].SetDown(true)
	if err := cluster.verifyHandoff(ctx, path, committed.ETag); err != nil {
		t.Errorf("handoff with 2/3 replicas, a majority, fails: %v", err)
	}
	replicas[2].SetDown(true)
	if err := cluster.verifyHandoff(ctx, path, committed.ETag); err == nil {
		t.Error("handoff verified with 1/3 replicas")
	}
}
