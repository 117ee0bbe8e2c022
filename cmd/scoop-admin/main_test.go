package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	if err := deploy(ctx, client, "gp", ghost); err == nil || !strings.Contains(err.Error(), `type "ghost" is not a pipeline`) {
		t.Fatalf("deploy ghost.json: err = %v, want the engine's refusal", err)
	}
	if _, err := client.ListObjects(ctx, "gp", objectstore.StorletContainer, ""); !objectstore.IsNotFound(err) {
		t.Fatalf("after a refused deploy, listing .storlets: err = %v, want not found (nothing stored)", err)
	}

	good := write("fra.json", `{"name":"fra","chain":[{"filter":"csv"}]}`)
	if err := deploy(ctx, client, "gp", good); err != nil {
		t.Fatalf("deploy fra.json: %v", err)
	}
	n, err := objectstore.DeployStorlets(ctx, c.Client(), "gp", c.Engine())
	if err != nil || n != 1 {
		t.Fatalf("sync after deploy = %d, %v; want the one manifest deployed", n, err)
	}
}
