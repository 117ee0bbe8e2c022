package integration

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"scoop/internal/faultinject"
	"scoop/internal/objectstore"
)

// The membership chaos suite drives a full remove→add membership cycle
// under scripted faults — the migrator killed mid-copy, a surviving source
// blacked out mid-handoff, PUTs racing the partition moves — and proves
// the three acceptance properties:
//
//  1. Zero client-visible errors: every GET during the dual-epoch window
//     returns the full, byte-identical object.
//  2. No under-replication after convergence: every object is on every
//     node of its committed placement with the committed ETag.
//  3. Determinism: the same seed replays the exact same transcript.

// membershipChaosObjects is the working set size; small enough to keep the
// suite fast, large enough that every partition move carries data.
const membershipChaosObjects = 24

func membershipPayload(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("m%03d-scoop-", i)), 48)
}

// runMembershipChaos executes one seeded membership chaos cycle and
// returns its transcript. All orchestration is single-goroutine and every
// fault is drawn from seeded schedules, so the transcript is a pure
// function of the seed.
func runMembershipChaos(t *testing.T, seed int64) string {
	t.Helper()
	ctx := context.Background()
	var log strings.Builder

	stores := make(map[string]*faultinject.Store)
	cluster, err := objectstore.NewCluster(objectstore.ClusterConfig{
		Proxies: 2, ObjectNodes: 4, DisksPerNode: 2, Replicas: 3, PartPower: 5,
		StoreWrap: func(node string, s objectstore.Store) objectstore.Store {
			w := &faultinject.Store{Inner: s, Node: node}
			stores[node] = w
			return w
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.Client()
	if err := client.CreateContainer(ctx, "gp", "c", nil); err != nil {
		t.Fatal(err)
	}

	names := make([]string, membershipChaosObjects)
	payloads := make(map[string][]byte, membershipChaosObjects)
	for i := range names {
		names[i] = fmt.Sprintf("obj-%03d", i)
		payloads[names[i]] = membershipPayload(i)
		if _, err := client.PutObject(ctx, "gp", "c", names[i], bytes.NewReader(payloads[names[i]]), nil); err != nil {
			t.Fatalf("seed PUT %s: %v", names[i], err)
		}
	}

	// readAll is the zero-client-errors probe: every object, in a fixed
	// order (map iteration would scramble the store-op sequence between
	// runs), must come back byte-identical no matter where the migration
	// stands.
	readAll := func(when string) {
		for _, name := range names {
			rc, _, err := client.GetObject(ctx, "gp", "c", name, objectstore.GetOptions{})
			if err != nil {
				t.Fatalf("%s: client-visible GET error on %s: %v", when, name, err)
			}
			got, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				t.Fatalf("%s: client-visible read error on %s: %v", when, name, err)
			}
			if !bytes.Equal(got, payloads[name]) {
				t.Fatalf("%s: %s returned %d bytes, want %d — dual-epoch read broke",
					when, name, len(got), len(payloads[name]))
			}
		}
	}

	// Chaos script 1: the migrator is killed mid-copy at seeded points of
	// its object sequence (the in-process analog of the replicator process
	// dying and restarting).
	migSched := faultinject.NewSchedule(faultinject.Generate(seed, faultinject.GenConfig{
		Horizon: 80, Faults: 6, Kinds: []faultinject.Kind{faultinject.ConnError},
	})...)
	kill := faultinject.MigrationHook(migSched)

	// Chaos script 2: PUTs race the partition moves. The first time the
	// migrator touches these objects, a new version commits mid-copy; the
	// registry ETag guard must make the new version win everywhere.
	racedTargets := map[string]bool{"/gp/c/obj-003": true, "/gp/c/obj-010": true, "/gp/c/obj-017": true}
	raced := make(map[string]bool)
	cluster.SetMigrationHook(func(path string) error {
		if racedTargets[path] && !raced[path] {
			object := strings.TrimPrefix(path, "/gp/c/")
			fresh := bytes.Repeat([]byte("raced-"+object+"-"), 32)
			if _, err := client.PutObject(ctx, "gp", "c", object, bytes.NewReader(fresh), nil); err != nil {
				return fmt.Errorf("racing PUT %s: %w", object, err)
			}
			raced[path] = true
			payloads[object] = fresh
		}
		return kill(path)
	})

	// Chaos script 3: a surviving source node blacks out for a window of
	// its store operations mid-handoff (sequence counting starts here, not
	// at cluster construction, because the schedule is installed now).
	stores["object-00"].Schedule = faultinject.NewSchedule(faultinject.Rule{
		From: 8, To: 20, Fault: faultinject.Fault{Kind: faultinject.Blackout},
	})

	// migrations counts the queued partition records.
	migrations := func() int {
		n := 0
		for _, r := range cluster.Records() {
			if r.Path == "" {
				n++
			}
		}
		return n
	}

	// converge drives reconcile passes until the window commits, probing
	// the full read set between passes. While a partition record is queued
	// a pass takes only partition records.
	converge := func(phase string) {
		for pass := 1; ; pass++ {
			if pass > 40 {
				t.Fatalf("phase %s: migration did not converge in 40 passes (%d records left)",
					phase, migrations())
			}
			moved, merr := cluster.Reconcile(ctx)
			fmt.Fprintf(&log, "%s pass=%d moved=%d err=%v\n", phase, pass, moved, merr)
			readAll(phase + " mid-window")
			if !cluster.Ring().Migrating() && migrations() == 0 {
				return
			}
		}
	}

	// Phase A: object-01 crashes and is decommissioned; its partitions
	// re-replicate from the survivors while one of them blacks out.
	if err := cluster.RemoveNode(ctx, "object-01"); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log, "A remove epoch=%d records=%d\n", cluster.Ring().Epoch(), migrations())
	readAll("A pre-migration")
	converge("A")

	// Phase B: a replacement joins and receives its share of partitions
	// under the same fault scripts.
	added, err := cluster.AddNode(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log, "B add=%s epoch=%d records=%d\n", added, cluster.Ring().Epoch(), migrations())
	readAll("B pre-migration")
	converge("B")

	if len(raced) != len(racedTargets) {
		t.Fatalf("only %d/%d racing PUTs fired — the script did not exercise the race", len(raced), len(racedTargets))
	}

	// Drain the repair queue (degraded reads during the blackout window
	// file repair records) until the pending gauge is empty: with no
	// partition record left, a pass takes the repairs.
	for pass := 1; cluster.Metrics().Gauge("proxy.repair.pending").Load() > 0; pass++ {
		if pass > 10 {
			t.Fatalf("repair queue did not drain: %d pending",
				cluster.Metrics().Gauge("proxy.repair.pending").Load())
		}
		n, rerr := cluster.Reconcile(ctx)
		fmt.Fprintf(&log, "repair pass=%d repaired=%d err=%v\n", pass, n, rerr)
	}

	// No under-replication after convergence: every object sits, with its
	// committed ETag, on every node of its committed placement.
	readAll("final")
	for _, name := range names {
		path := "/gp/c/" + name
		want, err := client.HeadObject(ctx, "gp", "c", name)
		if err != nil {
			t.Fatal(err)
		}
		part := cluster.Ring().Partition(path)
		placement := cluster.Ring().PartitionNodes(part)
		for _, nodeName := range placement {
			node, ok := cluster.Members().Get(nodeName)
			if !ok {
				t.Fatalf("placement of %s names non-member %s", path, nodeName)
			}
			have, herr := node.Head(ctx, path)
			if herr != nil {
				t.Fatalf("under-replicated after convergence: %s missing on %s: %v", path, nodeName, herr)
			}
			if have.ETag != want.ETag {
				t.Fatalf("%s on %s: etag %s, want committed %s", path, nodeName, have.ETag, want.ETag)
			}
		}
		fmt.Fprintf(&log, "final %s etag=%s replicas=%d\n", name, want.ETag, len(placement))
	}

	// Injected-fault accounting closes the transcript: a replay must see
	// the exact same chaos.
	injected := migSched.Injected()
	kinds := make([]string, 0, len(injected))
	for k := range injected {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&log, "injected migrator %s=%d\n", k, injected[k])
	}
	fmt.Fprintf(&log, "injected blackout=%d\n", stores["object-00"].Schedule.Injected()["blackout"])
	fmt.Fprintf(&log, "moved=%d failed=%d copied=%d pending=%d epoch=%d\n",
		cluster.Metrics().Counter("migrate.partitions.moved").Load(),
		cluster.Metrics().Counter("migrate.partitions.failed").Load(),
		cluster.Metrics().Counter("migrate.objects.copied").Load(),
		cluster.Metrics().Gauge("migrate.partitions.pending").Load(),
		cluster.Ring().Epoch())
	if got := migSched.InjectedTotal(); got == 0 {
		t.Fatal("the seeded schedule injected nothing — the run proved nothing")
	}
	return log.String()
}

// TestChaosMembershipCycle: the full remove→add cycle under migrator
// kills, a source blackout and racing PUTs converges with zero client
// errors and full replication.
//
// The seed-7 transcript is pinned: testdata/membership_seed7.golden was
// generated at the commit before the reconciler merge (PR 16), so a refactor
// of the store that moves a pass count, an error string, an injected-fault
// count or a final ETag fails here instead of being compared by eye. When a
// change is MEANT to move the transcript, regenerate the golden from the
// transcript this test logs and say why in CHANGES.md. With
// SCOOP_TRANSCRIPT_DIR set the transcript is also written there (CI uploads
// it as an artifact).
func TestChaosMembershipCycle(t *testing.T) {
	skipInShort(t)
	transcript := runMembershipChaos(t, 7)
	if !strings.Contains(transcript, "err=objectstore: migrate partition") {
		t.Error("no migration pass was ever killed — raise Faults or Horizon")
	}
	t.Logf("transcript:\n%s", transcript)
	if dir := os.Getenv("SCOOP_TRANSCRIPT_DIR"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "membership_seed7.txt"), []byte(transcript), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "membership_seed7.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if transcript != string(golden) {
		t.Errorf("seed-7 transcript differs from testdata/membership_seed7.golden:\n--- want ---\n%s", golden)
	}
}

// TestChaosMembershipReplayIdentical: the same seed replays the exact same
// transcript — pass-by-pass move counts, error strings, fault counts and
// final ETags included.
func TestChaosMembershipReplayIdentical(t *testing.T) {
	skipInShort(t)
	first := runMembershipChaos(t, 11)
	second := runMembershipChaos(t, 11)
	if first != second {
		t.Fatalf("same-seed runs diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	// A different seed must be allowed to differ (it almost surely does);
	// this guards against a transcript that is constant because nothing
	// chaotic is actually recorded in it.
	other := runMembershipChaos(t, 13)
	if first == other {
		t.Log("note: seeds 11 and 13 produced identical transcripts")
	}
}
