package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"scoop/internal/objectstore"
)

// deploy refuses, before any request, a manifest the store's engine would
// refuse on the next sync, and stores one it would take.
func TestDeployValidatesAgainstTheEngine(t *testing.T) {
	c, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(objectstore.NewHandler(c.Client()))
	defer srv.Close()
	client := objectstore.NewHTTPClient(srv.URL)
	ctx := context.Background()
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	ghost := write("ghost.json", `{"name":"x","type":"ghost"}`)
	if err := deploy(ctx, io.Discard, client, "gp", ghost); err == nil || !strings.Contains(err.Error(), `type "ghost" is not a pipeline`) {
		t.Fatalf("deploy ghost.json: err = %v, want the engine's refusal", err)
	}
	if _, err := client.ListObjects(ctx, "gp", objectstore.StorletContainer, ""); !objectstore.IsNotFound(err) {
		t.Fatalf("after a refused deploy, listing .storlets: err = %v, want not found (nothing stored)", err)
	}
	loop := write("loop.json", `{"name":"loop","chain":[{"filter":"loop"}]}`)
	if err := deploy(ctx, io.Discard, client, "gp", loop); err == nil || !strings.Contains(err.Error(), "leads back to itself") {
		t.Fatalf("deploy loop.json: err = %v, want the self-reference refused", err)
	}

	good := write("fra.json", `{"name":"fra","chain":[{"filter":"csv"}]}`)
	if err := deploy(ctx, io.Discard, client, "gp", good); err != nil {
		t.Fatalf("deploy fra.json: %v", err)
	}
	n, err := objectstore.DeployStorlets(ctx, c.Client(), "gp", c.Engine())
	if err != nil || n != 1 {
		t.Fatalf("sync after deploy = %d, %v; want the one manifest deployed", n, err)
	}
}

// adminServer serves a fresh cluster's admin endpoints.
func adminServer(t *testing.T) (*objectstore.Cluster, string) {
	t.Helper()
	c, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(objectstore.NewAdminHandler(c))
	t.Cleanup(srv.Close)
	return c, srv.URL
}

// admin runs one scoop-admin command line against store and returns what it
// printed.
func admin(t *testing.T, store string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(append([]string{"-store", store}, args...), &out)
	return out.String(), err
}

func TestStatsAndRingPrintIndentedJSON(t *testing.T) {
	_, store := adminServer(t)
	for cmd, key := range map[string]string{"stats": "filters", "ring": "epoch"} {
		out, err := admin(t, store, cmd)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("%s printed no JSON document: %v\n%s", cmd, err, out)
		}
		if _, ok := doc[key]; !ok {
			t.Errorf("%s: no %q key in\n%s", cmd, key, out)
		}
		if !strings.HasPrefix(out, "{\n  \"") || !strings.HasSuffix(out, "}\n") {
			t.Errorf("%s: output not indented:\n%s", cmd, out)
		}
	}
}

func TestNodeCommandsPrintTheServersLine(t *testing.T) {
	c, store := adminServer(t)
	victim := c.Nodes()[0].Name()
	out, err := admin(t, store, "remove-node", victim)
	if err != nil {
		t.Fatalf("remove-node: %v", err)
	}
	if want := regexp.MustCompile(`^removed ` + victim + ` \(epoch 2, \d+ partitions queued for re-replication\)\n$`); !want.MatchString(out) {
		t.Errorf("remove-node printed %q", out)
	}
	// The removal's migration is still pending: the server answers 409.
	if _, err := admin(t, store, "add-node"); err == nil || !strings.HasPrefix(err.Error(), "add-node: http 409: ") {
		t.Errorf("add-node during a migration: err = %v, want add-node: http 409", err)
	}
	if _, err := c.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, err = admin(t, store, "add-node", "object-new")
	if err != nil {
		t.Fatalf("add-node: %v", err)
	}
	if want := regexp.MustCompile(`^added object-new \(epoch 3, \d+ partitions queued for migration\)\n$`); !want.MatchString(out) {
		t.Errorf("add-node printed %q", out)
	}
}

func TestAdminErrorSurfacesStatus(t *testing.T) {
	_, store := adminServer(t)
	_, err := admin(t, store, "remove-node", "ghost")
	if err == nil || !strings.HasPrefix(err.Error(), "remove-node: http 400: ") {
		t.Errorf("remove-node ghost: err = %v, want remove-node: http 400", err)
	}
	_, err = admin(t, store, "sync", "")
	if err == nil || !strings.HasPrefix(err.Error(), "sync: http 400: account query parameter required") {
		t.Errorf("sync without account: err = %v, want sync: http 400", err)
	}
}

func TestSyncDeploysAManifest(t *testing.T) {
	c, store := adminServer(t)
	ctx := context.Background()
	cl := c.Client()
	if err := cl.CreateContainer(ctx, "gp", objectstore.StorletContainer, nil); err != nil {
		t.Fatal(err)
	}
	manifest := `{"name": "gp-csv", "chain": [{"filter": "csv", "columns": ["vid"]}]}`
	if _, err := cl.PutObject(ctx, "gp", objectstore.StorletContainer, "m.json", strings.NewReader(manifest), nil); err != nil {
		t.Fatal(err)
	}
	out, err := admin(t, store, "sync", "gp")
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if out != "deployed 1 filter(s); active: [gp-csv]\n" {
		t.Errorf("sync printed %q", out)
	}
	if _, ok := c.Engine().Get("gp-csv"); !ok {
		t.Error("sync did not deploy gp-csv")
	}
}
