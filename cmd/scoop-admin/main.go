// Command scoop-admin performs administrative operations against a running
// store (scoopd): container management, storlet-manifest deployment (PUT a
// manifest object into the reserved .storlets container), and stats.
//
// Usage:
//
//	scoop-admin -store http://localhost:8080 containers gp
//	scoop-admin -store http://localhost:8080 create-container gp meters
//	scoop-admin -store http://localhost:8080 delete-container gp meters
//	scoop-admin -store http://localhost:8080 list gp meters [prefix]
//	scoop-admin -store http://localhost:8080 deploy gp my-filter.json
//	scoop-admin -store http://localhost:8080 stats
//	scoop-admin -store http://localhost:8080 ring
//	scoop-admin -store http://localhost:8080 add-node [name]
//	scoop-admin -store http://localhost:8080 remove-node <name>
//	scoop-admin -store http://localhost:8080 drain-node <name>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"scoop/internal/core"
	"scoop/internal/objectstore"
	"scoop/internal/storlet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scoop-admin:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	flags := flag.NewFlagSet("scoop-admin", flag.ExitOnError)
	store := flags.String("store", "http://localhost:8080", "store URL")
	_ = flags.Parse(args) // ExitOnError: a bad flag exits
	args = flags.Args()
	if len(args) == 0 {
		flags.Usage()
		return fmt.Errorf("missing command (containers, create-container, delete-container, list, deploy, sync, stats, ring, add-node, remove-node, drain-node)")
	}
	client := objectstore.NewHTTPClient(*store)
	// One-shot CLI: commands run to completion or are killed with the
	// process, so Background is the honest root context.
	ctx := context.Background()
	admin := strings.TrimRight(*store, "/") + "/admin/"
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "containers":
		if len(rest) != 1 {
			return fmt.Errorf("usage: containers <account>")
		}
		names, err := client.ListContainers(ctx, rest[0])
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(out, n)
		}
		return nil
	case "create-container":
		if len(rest) != 2 {
			return fmt.Errorf("usage: create-container <account> <container>")
		}
		err := client.CreateContainer(ctx, rest[0], rest[1], nil)
		if err == objectstore.ErrContainerExists {
			fmt.Fprintln(out, "already exists")
			return nil
		}
		return err
	case "delete-container":
		if len(rest) != 2 {
			return fmt.Errorf("usage: delete-container <account> <container>")
		}
		return client.DeleteContainer(ctx, rest[0], rest[1])
	case "list":
		if len(rest) < 2 || len(rest) > 3 {
			return fmt.Errorf("usage: list <account> <container> [prefix]")
		}
		prefix := ""
		if len(rest) == 3 {
			prefix = rest[2]
		}
		objects, err := client.ListObjects(ctx, rest[0], rest[1], prefix)
		if err != nil {
			return err
		}
		for _, o := range objects {
			fmt.Fprintf(out, "%-40s %10d  %s\n", o.Name, o.Size, o.ETag)
		}
		return nil
	case "deploy":
		if len(rest) != 2 {
			return fmt.Errorf("usage: deploy <account> <manifest.json>")
		}
		return deploy(ctx, out, client, rest[0], rest[1])
	case "sync":
		if len(rest) != 1 {
			return fmt.Errorf("usage: sync <account>")
		}
		return call(out, http.MethodPost, admin+"deploy?account="+rest[0], "sync")
	case "stats", "ring":
		return call(out, http.MethodGet, admin+cmd, cmd+" endpoint")
	case "add-node":
		name := ""
		if len(rest) == 1 {
			name = rest[0]
		} else if len(rest) > 1 {
			return fmt.Errorf("usage: add-node [name]")
		}
		return nodeOp(out, admin, "add", name)
	case "remove-node", "drain-node":
		op := strings.TrimSuffix(cmd, "-node")
		if len(rest) != 1 {
			return fmt.Errorf("usage: %s <name>", cmd)
		}
		return nodeOp(out, admin, op, rest[0])
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// deploy validates the manifest locally, stores it in the .storlets
// container, and reminds the operator how the engine picks it up.
func deploy(ctx context.Context, out io.Writer, client *objectstore.HTTPClient, account, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Local validation before upload: the manifest must deploy into a
	// scratch engine holding the standard filters, as it must into the
	// store's engine on the next sync.
	scratch := storlet.NewEngine(storlet.Limits{})
	if err := core.RegisterStandardFilters(scratch); err != nil {
		return err
	}
	if err := scratch.DeployManifest(data); err != nil {
		return fmt.Errorf("invalid manifest %s: %w", path, err)
	}
	var m storlet.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("invalid manifest %s: %w", path, err)
	}
	err = client.CreateContainer(ctx, account, objectstore.StorletContainer, nil)
	if err != nil && err != objectstore.ErrContainerExists {
		return err
	}
	name := filepath.Base(path)
	info, err := client.PutObject(ctx, account, objectstore.StorletContainer, name, strings.NewReader(string(data)), nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "deployed %s as %s/%s (%d bytes)\n", m.Name, objectstore.StorletContainer, name, info.Size)
	fmt.Fprintln(out, "run `scoop-admin sync <account>` to load it into the running engine")
	return nil
}

// nodeOp drives a membership change through POST /admin/nodes.
func nodeOp(out io.Writer, admin, op, name string) error {
	u := admin + "nodes?op=" + op
	if name != "" {
		u += "&name=" + name
	}
	return call(out, http.MethodPost, u, op+"-node")
}

// call sends one admin request and prints the answer: a POST's text as it
// is, a GET's JSON document indented. label prefixes its errors.
func call(out io.Writer, method, url, label string) error {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: read response: %w", label, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: http %d: %s", label, resp.StatusCode, body)
	}
	if method != http.MethodGet {
		_, err = out.Write(body)
		return err
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	indented, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(indented))
	return err
}
