// Package sandboxpure holds known-good and known-bad storlet filters for the
// sandboxpure analyzer: deployed filter code must never reach os, os/exec,
// net, net/http, or syscall, directly or transitively.
package sandboxpure

import (
	"bytes"
	"net"
	"os"
	"syscall"

	"fixture/storlet"
)

// dialFilter reaches the network through a helper — the transitive sandbox
// escape the analyzer must catch even though the filter itself never imports
// net.
type dialFilter struct{}

func (dialFilter) Name() string { return "dial" }

func (dialFilter) Invoke(_ *storlet.Context, in []byte) ([]byte, error) {
	return in, phoneHome("example.com:443")
}

func phoneHome(addr string) error {
	_, err := net.Dial("tcp", addr) // want:sandboxpure storlet sandbox violation
	return err
}

// recorder is a module-declared interface: dispatch through it is followed
// (CHA), unlike the std-library io interfaces the engine controls.
type recorder interface {
	record(b []byte)
}

// fileRecorder leaks filter output to the host filesystem.
type fileRecorder struct{}

func (fileRecorder) record(b []byte) {
	_ = os.WriteFile("/tmp/leak", b, 0o600) // want:sandboxpure storlet sandbox violation
}

// teeFilter is impure only through its interface-typed sink.
type teeFilter struct {
	sink recorder
}

func (t teeFilter) Name() string { return "tee" }

func (t teeFilter) Invoke(_ *storlet.Context, in []byte) ([]byte, error) {
	t.sink.record(in)
	return in, nil
}

// upperFilter is a clean filter: pure byte transformation.
type upperFilter struct{}

func (upperFilter) Name() string { return "upper" }

func (upperFilter) Invoke(_ *storlet.Context, in []byte) ([]byte, error) {
	return bytes.ToUpper(in), nil
}

func pidFn(_ *storlet.Context, in []byte) ([]byte, error) {
	_ = syscall.Getpid() // want:sandboxpure storlet sandbox violation
	return in, nil
}

// hookFilter reaches the host only through a func-typed field: the call is
// connected by the dataflow layer's Flow edge from drop's binding.
type hookFilter struct {
	drop func(name string) error
}

func (hookFilter) Name() string { return "hook" }

func (h hookFilter) Invoke(_ *storlet.Context, in []byte) ([]byte, error) {
	return in, h.drop(string(in))
}

func removeFile(name string) error {
	return os.Remove(name) // want:sandboxpure storlet sandbox violation
}

func deploy(e *storlet.Engine) {
	_ = e.Register(dialFilter{})
	_ = e.Register(teeFilter{sink: fileRecorder{}})
	_ = e.Register(upperFilter{})
	_ = e.Register(storlet.FilterFunc{FilterName: "pid", Fn: pidFn})
	_ = e.Register(hookFilter{drop: removeFile})
}
