// Package objectstore implements the Swift-like object store Scoop runs on:
// a metadata registry (accounts, containers, committed object versions),
// proxy servers on the data path (request routing, replication fan-out) and
// object servers (blob storage), with placement decided by a consistent-hash
// ring and a storlet engine attached to proxies and object servers so
// pushdown filters can execute at either stage (paper §III-B, §IV-B).
//
// The store exposes the familiar /account/container/object namespace with
// PUT/GET/HEAD/DELETE plus byte-range reads, and carries pushdown tasks in
// request metadata — no API changes, exactly how Scoop extends Swift.
package objectstore

import (
	"context"
	"errors"
	"io"
	"time"

	"scoop/internal/pushdown"
)

// Errors returned by the store.
var (
	ErrNotFound          = errors.New("objectstore: object not found")
	ErrContainerNotFound = errors.New("objectstore: container not found")
	ErrContainerExists   = errors.New("objectstore: container already exists")
	ErrContainerNotEmpty = errors.New("objectstore: container not empty")
	ErrBadRange          = errors.New("objectstore: invalid byte range")
	ErrNodeDown          = errors.New("objectstore: object node down")
	// ErrUnderReplicated categorizes a PUT that missed its write quorum.
	// The concrete error is always a *ReplicationError carrying the
	// per-node causes; match the category with errors.Is and the detail
	// with errors.As.
	ErrUnderReplicated = errors.New("objectstore: object under-replicated")
)

// ObjectInfo is the metadata of a stored object.
type ObjectInfo struct {
	Account   string
	Container string
	Name      string
	Size      int64
	ETag      string // md5 of the stored bytes, Swift-style
	Created   time.Time
	// Meta holds user metadata (the X-Object-Meta-* headers).
	Meta map[string]string
}

// Path returns the ring key of the object.
func (o ObjectInfo) Path() string {
	return "/" + o.Account + "/" + o.Container + "/" + o.Name
}

// GetOptions parameterize an object read.
type GetOptions struct {
	// RangeStart/RangeEnd select bytes [RangeStart, RangeEnd) of the object.
	// RangeEnd <= 0 means "to the end". A zero-value GetOptions reads the
	// whole object.
	RangeStart int64
	RangeEnd   int64
	// Pushdown is the filter chain to execute on the request's data stream.
	// Stage fields on each task choose where each filter runs.
	Pushdown []*pushdown.Task
}

// ContainerPolicy configures per-container behaviour — the paper's "simple
// policies" that deploy and enforce filters for a tenant or container.
type ContainerPolicy struct {
	// PutPipeline is an ETL chain applied to every uploaded object.
	PutPipeline []*pushdown.Task
	// DisablePushdown rejects GET-side pushdown for this container (e.g. the
	// administrator downgraded a "bronze" tenant under load, §VII).
	DisablePushdown bool
}

// Client is the operations surface of the store, implemented both by the
// in-process cluster (Cluster.Client) and by the HTTP client. Every operation takes a
// context.Context so a caller that goes away — a query cancelled mid-scan, a
// compute task past its deadline — tears its request down through the whole
// connector -> proxy -> storlet stack instead of leaving work running.
type Client interface {
	// CreateContainer creates a container for an account.
	CreateContainer(ctx context.Context, account, container string, policy *ContainerPolicy) error
	// PutObject stores an object, applying the container's PUT pipeline.
	PutObject(ctx context.Context, account, container, object string, r io.Reader, meta map[string]string) (ObjectInfo, error)
	// GetObject reads (a range of) an object, optionally through pushdown
	// filters. The caller must close the returned reader.
	GetObject(ctx context.Context, account, container, object string, opts GetOptions) (io.ReadCloser, ObjectInfo, error)
	// HeadObject returns object metadata.
	HeadObject(ctx context.Context, account, container, object string) (ObjectInfo, error)
	// DeleteObject removes an object from all replicas.
	DeleteObject(ctx context.Context, account, container, object string) error
	// ListObjects lists a container's objects with the given name prefix.
	ListObjects(ctx context.Context, account, container, prefix string) ([]ObjectInfo, error)
	// ListContainers lists an account's container names, sorted.
	ListContainers(ctx context.Context, account string) ([]string, error)
	// DeleteContainer removes an empty container (Swift semantics: deleting
	// a non-empty container fails with ErrContainerNotEmpty).
	DeleteContainer(ctx context.Context, account, container string) error
}
