package objectstore

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"scoop/internal/pushdown"
	"scoop/internal/storlet/csvfilter"
	"scoop/internal/storlet/etl"
)

// newHTTPStore spins a full cluster behind an HTTP server and returns a
// wire-level client — the disaggregated deployment in miniature.
func newHTTPStore(t *testing.T) (*Cluster, *HTTPClient) {
	t.Helper()
	c := newTestCluster(t)
	srv := httptest.NewServer(NewHandler(c.Client()))
	t.Cleanup(srv.Close)
	return c, NewHTTPClient(srv.URL)
}

func TestHTTPRoundTrip(t *testing.T) {
	_, cl := newHTTPStore(t)
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	info, err := cl.PutObject(context.Background(), "gp", "meters", "jan.csv", strings.NewReader(meterCSV),
		map[string]string{"Source": "generator"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(meterCSV)) || info.ETag == "" {
		t.Fatalf("info = %+v", info)
	}
	if info.Meta["Source"] != "generator" {
		t.Errorf("meta = %v", info.Meta)
	}
	rc, got, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, rc) != meterCSV {
		t.Error("data mismatch")
	}
	if got.Size != int64(len(meterCSV)) {
		t.Errorf("content-length = %d", got.Size)
	}
}

func TestHTTPContainerSemantics(t *testing.T) {
	_, cl := newHTTPStore(t)
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); !errors.Is(err, ErrContainerExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := cl.PutObject(context.Background(), "gp", "ghost", "o", strings.NewReader("x"), nil); !IsNotFound(err) {
		t.Errorf("put to missing container: %v", err)
	}
}

func TestHTTPRange(t *testing.T) {
	_, cl := newHTTPStore(t)
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	if _, err := cl.PutObject(context.Background(), "gp", "meters", "jan.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{RangeStart: 3, RangeEnd: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, rc); got != meterCSV[3:10] {
		t.Errorf("range = %q", got)
	}
	// Open-ended range.
	rc, _, err = cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{RangeStart: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, rc); got != meterCSV[5:] {
		t.Errorf("open range = %q", got)
	}
	if _, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{RangeStart: 1 << 40}); !errors.Is(err, ErrBadRange) {
		t.Errorf("bad range: %v", err)
	}
}

func TestHTTPPushdown(t *testing.T) {
	cluster, cl := newHTTPStore(t)
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	if _, err := cl.PutObject(context.Background(), "gp", "meters", "jan.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	task := &pushdown.Task{
		Filter: csvfilter.FilterName, Schema: meterSchema,
		Columns:    []string{"vid"},
		Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}},
	}
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{Pushdown: []*pushdown.Task{task}})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(readAll(t, rc)); got != "V2" {
		t.Errorf("got %q", got)
	}
	if cluster.NodeStatsTotal().FilteredRequests == 0 {
		t.Error("filter did not run at object node over HTTP")
	}
}

func TestHTTPPutPipelinePolicy(t *testing.T) {
	_, cl := newHTTPStore(t)
	policy := &ContainerPolicy{PutPipeline: []*pushdown.Task{{
		Filter:  etl.CleanseName,
		Options: map[string]string{"columns": "5"},
	}}}
	if err := cl.CreateContainer(context.Background(), "gp", "meters", policy); err != nil {
		t.Fatal(err)
	}
	dirty := "V1,2015-01-01,1.0,Rotterdam,NED\nshort,row\n"
	info, err := cl.PutObject(context.Background(), "gp", "meters", "jan.csv", strings.NewReader(dirty), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := "V1,2015-01-01,1.0,Rotterdam,NED\n"
	if info.Size != int64(len(want)) {
		t.Errorf("stored size = %d, want %d", info.Size, len(want))
	}
}

func TestHTTPHeadDeleteList(t *testing.T) {
	_, cl := newHTTPStore(t)
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	_, _ = cl.PutObject(context.Background(), "gp", "meters", "a.csv", strings.NewReader("x\n"), nil)
	_, _ = cl.PutObject(context.Background(), "gp", "meters", "b.csv", strings.NewReader("y\n"), nil)
	info, err := cl.HeadObject(context.Background(), "gp", "meters", "a.csv")
	if err != nil || info.Size != 2 {
		t.Fatalf("head: %+v, %v", info, err)
	}
	list, err := cl.ListObjects(context.Background(), "gp", "meters", "")
	if err != nil || len(list) != 2 {
		t.Fatalf("list: %v, %v", list, err)
	}
	list, err = cl.ListObjects(context.Background(), "gp", "meters", "b")
	if err != nil || len(list) != 1 || list[0].Name != "b.csv" {
		t.Fatalf("prefix list: %v, %v", list, err)
	}
	if err := cl.DeleteObject(context.Background(), "gp", "meters", "a.csv"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.HeadObject(context.Background(), "gp", "meters", "a.csv"); !errors.Is(err, ErrNotFound) {
		t.Errorf("head after delete: %v", err)
	}
}

// TestHTTPNamesNeedingEscapes sends names holding URL metacharacters through
// every object verb over the wire and checks each result against the
// in-process client: the object must be stored, found and removed under its
// own name, and a listing prefix must match as it does in process.
func TestHTTPNamesNeedingEscapes(t *testing.T) {
	ctx := context.Background()
	c, wire := newHTTPStore(t)
	local := c.Client()
	if err := wire.CreateContainer(ctx, "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, prefix string }{
		{"plain.csv", "plain"},
		{"a#b.csv", "a#"},
		{"q?x.csv", "q?"},
		{"p%20q.csv", "p%"},
		{"plus+1.csv", "plus+"},
	} {
		body := "data of " + tc.name + "\n"
		put, err := wire.PutObject(ctx, "gp", "meters", tc.name, strings.NewReader(body), nil)
		if err != nil {
			t.Fatalf("PUT %q: %v", tc.name, err)
		}
		want, err := local.HeadObject(ctx, "gp", "meters", tc.name)
		if err != nil || want.ETag != put.ETag || want.Size != int64(len(body)) {
			t.Fatalf("PUT %q stored %+v (%v), acknowledged %+v", tc.name, want, err, put)
		}
		head, err := wire.HeadObject(ctx, "gp", "meters", tc.name)
		if err != nil || head.ETag != want.ETag || head.Size != want.Size {
			t.Errorf("HEAD %q = %+v, %v; in process %+v", tc.name, head, err, want)
		}
		rc, _, err := wire.GetObject(ctx, "gp", "meters", tc.name, GetOptions{})
		if err != nil {
			t.Fatalf("GET %q: %v", tc.name, err)
		}
		if got := readAll(t, rc); got != body {
			t.Errorf("GET %q = %q, want %q", tc.name, got, body)
		}
		listed, err := wire.ListObjects(ctx, "gp", "meters", tc.prefix)
		if err != nil {
			t.Fatalf("LIST %q: %v", tc.prefix, err)
		}
		inProc, err := local.ListObjects(ctx, "gp", "meters", tc.prefix)
		if err != nil {
			t.Fatal(err)
		}
		if len(listed) != 1 || len(inProc) != 1 || listed[0].Name != tc.name || inProc[0].Name != tc.name {
			t.Errorf("LIST %q = %v; in process %v", tc.prefix, listed, inProc)
		}
		if err := wire.DeleteObject(ctx, "gp", "meters", tc.name); err != nil {
			t.Fatalf("DELETE %q: %v", tc.name, err)
		}
		if _, err := local.HeadObject(ctx, "gp", "meters", tc.name); !errors.Is(err, ErrNotFound) {
			t.Errorf("HEAD %q after DELETE: %v", tc.name, err)
		}
	}
	if left, err := local.ListObjects(ctx, "gp", "meters", ""); err != nil || len(left) != 0 {
		t.Errorf("container after the deletes holds %v, %v", left, err)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	c := newTestCluster(t)
	srv := httptest.NewServer(NewHandler(c.Client()))
	defer srv.Close()

	get := func(path string, hdr map[string]string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		io.Copy(io.Discard, resp.Body)
		return resp
	}
	if resp := get("/", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET / = %d", resp.StatusCode)
	}
	if resp := get("/v2/a/c/o", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("bad version = %d", resp.StatusCode)
	}
	if resp := get("/v1/a/c/o/extra", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("nested path = %d", resp.StatusCode)
	}
	// Prepare a real object for header error paths.
	cl := NewHTTPClient(srv.URL)
	_ = cl.CreateContainer(context.Background(), "a", "c", nil)
	_, _ = cl.PutObject(context.Background(), "a", "c", "o", strings.NewReader("hello\n"), nil)
	if resp := get("/v1/a/c/o", map[string]string{"Range": "bogus"}); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("bad range header = %d", resp.StatusCode)
	}
	if resp := get("/v1/a/c/o", map[string]string{"Range": "bytes=1-2,4-5"}); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("multi range = %d", resp.StatusCode)
	}
	if resp := get("/v1/a/c/o", map[string]string{pushdown.HeaderName: "garbage"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad pushdown header = %d", resp.StatusCode)
	}
	// Method not allowed.
	req, _ := http.NewRequest(http.MethodPatch, srv.URL+"/v1/a/c/o", nil)
	resp, _ := http.DefaultClient.Do(req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PATCH = %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/v1/a/c", nil)
	resp, _ = http.DefaultClient.Do(req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST container = %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/v1/a", nil)
	resp, _ = http.DefaultClient.Do(req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT account = %d", resp.StatusCode)
	}
}

func TestHTTPAccountAndContainerLifecycle(t *testing.T) {
	_, cl := newHTTPStore(t)
	if _, err := cl.ListContainers(context.Background(), "gp"); !IsNotFound(err) {
		t.Errorf("unknown account: %v", err)
	}
	_ = cl.CreateContainer(context.Background(), "gp", "a", nil)
	_ = cl.CreateContainer(context.Background(), "gp", "b", nil)
	names, err := cl.ListContainers(context.Background(), "gp")
	if err != nil || len(names) != 2 || names[0] != "a" {
		t.Fatalf("containers = %v, %v", names, err)
	}
	// Non-empty containers refuse deletion.
	if _, err := cl.PutObject(context.Background(), "gp", "a", "o", strings.NewReader("x"), nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteContainer(context.Background(), "gp", "a"); !errors.Is(err, ErrContainerNotEmpty) {
		t.Errorf("non-empty delete: %v", err)
	}
	if err := cl.DeleteObject(context.Background(), "gp", "a", "o"); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteContainer(context.Background(), "gp", "a"); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteContainer(context.Background(), "gp", "a"); !IsNotFound(err) {
		t.Errorf("double delete: %v", err)
	}
	names, _ = cl.ListContainers(context.Background(), "gp")
	if len(names) != 1 || names[0] != "b" {
		t.Errorf("containers after delete = %v", names)
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		in         string
		start, end int64
		ok         bool
	}{
		{"bytes=0-9", 0, 10, true},
		{"bytes=5-", 5, 0, true},
		{"bytes=5-5", 5, 6, true},
		{"bytes=9-5", 0, 0, false},
		{"bytes=-5", 0, 0, false},
		{"items=0-4", 0, 0, false},
		{"bytes=a-b", 0, 0, false},
		{"bytes=0", 0, 0, false},
	}
	for _, c := range cases {
		start, end, err := parseRange(c.in)
		if c.ok && (err != nil || start != c.start || end != c.end) {
			t.Errorf("parseRange(%q) = %d,%d,%v; want %d,%d", c.in, start, end, err, c.start, c.end)
		}
		if !c.ok && err == nil {
			t.Errorf("parseRange(%q) should fail", c.in)
		}
	}
}
