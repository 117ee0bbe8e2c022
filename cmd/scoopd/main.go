// Command scoopd runs a Scoop object store over HTTP: an in-process cluster
// of proxies and object nodes (with the CSV pushdown filter and the ETL
// filters deployed) behind a Swift-style REST API.
//
// Usage:
//
//	scoopd -addr :8080 -proxies 2 -nodes 4 -replicas 3
//
// Then, for example:
//
//	curl -X PUT http://localhost:8080/v1/gp/meters
//	curl -X PUT --data-binary @data.csv http://localhost:8080/v1/gp/meters/jan.csv
//	task=$(printf '{"filter":"csv","cols":["vid"],"schema":"vid string, city string"}' | base64 -w0)
//	curl -H "X-Scoop-Pushdown: $task" http://localhost:8080/v1/gp/meters/jan.csv
//
// The X-Scoop-Pushdown header is the base64 of the task JSON; a chain of
// tasks joins their encodings with ';'.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scoop/internal/core"
	"scoop/internal/objectstore"
	"scoop/internal/storlet"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	proxies := flag.Int("proxies", 2, "proxy server count")
	nodes := flag.Int("nodes", 4, "object server count")
	disks := flag.Int("disks", 2, "disks per object server")
	replicas := flag.Int("replicas", 3, "object replica count")
	timeout := flag.Duration("filter-timeout", 5*time.Minute, "per-invocation filter timeout")
	dataDir := flag.String("data-dir", "", "persist objects under this directory (default: in-memory)")
	cacheBytes := flag.Int64("result-cache-bytes", 256<<20, "pushdown result cache capacity in bytes (0 disables)")
	reconcileIvl := flag.Duration("reconcile-interval", 2*time.Second, "background reconcile (repair + migration) pass interval (0 disables)")
	healthIvl := flag.Duration("health-interval", 5*time.Second, "node health probe interval (0 disables)")
	flag.Parse()

	cluster, err := objectstore.NewCluster(objectstore.ClusterConfig{
		Proxies:           *proxies,
		ObjectNodes:       *nodes,
		DisksPerNode:      *disks,
		Replicas:          *replicas,
		Limits:            storlet.Limits{Timeout: *timeout},
		DataDir:           *dataDir,
		ResultCacheBytes:  *cacheBytes,
		ReconcileInterval: *reconcileIvl,
		HealthInterval:    *healthIvl,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoopd:", err)
		os.Exit(1)
	}
	if err := core.RegisterStandardFilters(cluster.Engine()); err != nil {
		fmt.Fprintln(os.Stderr, "scoopd:", err)
		os.Exit(1)
	}
	log.Printf("scoopd: %d proxies, %d object nodes (%d disks each), %d replicas",
		*proxies, *nodes, *disks, *replicas)
	log.Printf("scoopd: filters deployed: %v", cluster.Engine().Names())
	handler := objectstore.NewHandler(cluster.Client())
	handler.SetRingInfo(func() (uint64, bool) {
		return cluster.Ring().Epoch(), cluster.Ring().Migrating()
	})
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.Handle("/admin/", objectstore.NewAdminHandler(cluster))
	srv := &http.Server{Addr: *addr, Handler: mux}
	log.Printf("scoopd: listening on %s (admin at /admin/stats, /admin/deploy, /admin/ring, /admin/nodes)", *addr)

	// Graceful shutdown: stop accepting, then stop the cluster's background
	// repair/migration/health loops before exiting.
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-done
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	cluster.Close()
	log.Printf("scoopd: shut down")
}
