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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scoop-admin:", err)
		os.Exit(1)
	}
}

func run() error {
	store := flag.String("store", "http://localhost:8080", "store URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return fmt.Errorf("missing command (containers, create-container, delete-container, list, deploy, sync, stats, ring, add-node, remove-node, drain-node)")
	}
	client := objectstore.NewHTTPClient(*store)
	// One-shot CLI: commands run to completion or are killed with the
	// process, so Background is the honest root context.
	ctx := context.Background()
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
			fmt.Println(n)
		}
		return nil
	case "create-container":
		if len(rest) != 2 {
			return fmt.Errorf("usage: create-container <account> <container>")
		}
		err := client.CreateContainer(ctx, rest[0], rest[1], nil)
		if err == objectstore.ErrContainerExists {
			fmt.Println("already exists")
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
			fmt.Printf("%-40s %10d  %s\n", o.Name, o.Size, o.ETag)
		}
		return nil
	case "deploy":
		if len(rest) != 2 {
			return fmt.Errorf("usage: deploy <account> <manifest.json>")
		}
		return deploy(ctx, client, rest[0], rest[1])
	case "sync":
		if len(rest) != 1 {
			return fmt.Errorf("usage: sync <account>")
		}
		resp, err := http.Post(strings.TrimRight(*store, "/")+"/admin/deploy?account="+rest[0], "", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if err != nil {
			return fmt.Errorf("sync: read response: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("sync: http %d: %s", resp.StatusCode, body)
		}
		fmt.Print(string(body))
		return nil
	case "stats":
		return stats(*store)
	case "ring":
		return ring(*store)
	case "add-node":
		name := ""
		if len(rest) == 1 {
			name = rest[0]
		} else if len(rest) > 1 {
			return fmt.Errorf("usage: add-node [name]")
		}
		return nodeOp(*store, "add", name)
	case "remove-node":
		if len(rest) != 1 {
			return fmt.Errorf("usage: remove-node <name>")
		}
		return nodeOp(*store, "remove", rest[0])
	case "drain-node":
		if len(rest) != 1 {
			return fmt.Errorf("usage: drain-node <name>")
		}
		return nodeOp(*store, "drain", rest[0])
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// deploy validates the manifest locally, stores it in the .storlets
// container, and reminds the operator how the engine picks it up.
func deploy(ctx context.Context, client *objectstore.HTTPClient, account, path string) error {
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
	fmt.Printf("deployed %s as %s/%s (%d bytes)\n", m.Name, objectstore.StorletContainer, name, info.Size)
	fmt.Println("run `scoop-admin sync <account>` to load it into the running engine")
	return nil
}

// ring pretty-prints the /admin/ring membership snapshot.
func ring(store string) error {
	resp, err := http.Get(strings.TrimRight(store, "/") + "/admin/ring")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, err := io.ReadAll(io.LimitReader(resp.Body, 256))
		if err != nil {
			body = []byte(fmt.Sprintf("<error body unreadable: %v>", err))
		}
		return fmt.Errorf("ring endpoint: http %d: %s", resp.StatusCode, body)
	}
	var pretty map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&pretty); err != nil {
		return err
	}
	out, err := json.MarshalIndent(pretty, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// nodeOp drives a membership change through POST /admin/nodes.
func nodeOp(store, op, name string) error {
	u := strings.TrimRight(store, "/") + "/admin/nodes?op=" + op
	if name != "" {
		u += "&name=" + name
	}
	resp, err := http.Post(u, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return fmt.Errorf("%s-node: read response: %w", op, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s-node: http %d: %s", op, resp.StatusCode, body)
	}
	fmt.Print(string(body))
	return nil
}

func stats(store string) error {
	resp, err := http.Get(strings.TrimRight(store, "/") + "/admin/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, err := io.ReadAll(io.LimitReader(resp.Body, 256))
		if err != nil {
			body = []byte(fmt.Sprintf("<error body unreadable: %v>", err))
		}
		return fmt.Errorf("stats endpoint: http %d: %s", resp.StatusCode, body)
	}
	var pretty map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&pretty); err != nil {
		return err
	}
	out, err := json.MarshalIndent(pretty, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
