package lint

import (
	"go/ast"
	"go/types"

	"scoop/internal/lint/callgraph"
)

// AnalyzerCtxPropagate reports exported functions that perform network or
// disk I/O directly but accept no context.Context. Scoop's north star is a
// storage layer under heavy multi-tenant load; a GET whose caller has gone
// away must be cancellable all the way down the connector -> proxy -> storlet
// stack, and that only works if every I/O-performing entry point threads a
// context. Package main is exempt (binary entry points have no callers that
// could pass one).
var AnalyzerCtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "exported functions performing network/disk I/O must accept a context.Context",
	Run:  runCtxPropagate,
}

func runCtxPropagate(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if acceptsContext(pass.Info, fd.Type) {
				continue
			}
			if io := firstDirectIO(pass, fd.Body); io != "" {
				pass.Reportf(fd.Name.Pos(), "exported %s performs I/O (%s) but accepts no context.Context; cancellation cannot propagate", fd.Name.Name, io)
			}
		}
	}
}

// acceptsContext reports whether any parameter of the signature is a
// context.Context.
func acceptsContext(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := info.Types[field.Type]; ok && namedType(tv.Type, "context", "Context") {
			return true
		}
	}
	return false
}

// firstDirectIO returns a description of the first direct network/disk I/O
// call in body, or "" when there is none. Only calls into the std library's
// I/O entry points count: I/O behind interfaces (io.Reader streams, the
// objectstore.Client) is attributed to the implementation that performs it.
func firstDirectIO(pass *Pass, body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := callgraph.StaticCallee(pass.Info, call); fn != nil && isDirectIOFunc(fn) {
			found = fn.FullName()
			return false
		}
		return true
	})
	return found
}

// isDirectIOFunc reports whether fn is a std-library call that hits the
// network or the disk.
func isDirectIOFunc(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "net/http":
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head", "NewRequest", "NewRequestWithContext":
			return true
		}
	case "net":
		switch fn.Name() {
		case "Dial", "DialTimeout", "DialTCP", "DialUDP", "DialIP", "DialUnix", "Listen", "ListenPacket":
			return true
		}
	case "os":
		switch fn.Name() {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "ReadDir", "MkdirAll", "Remove", "RemoveAll", "Rename":
			return true
		}
	}
	return false
}
