package lint

import (
	"go/ast"
	"go/types"
)

// walkParents traverses the AST depth-first, invoking fn with each node and
// the stack of its ancestors (outermost first). Returning false skips the
// node's children.
func walkParents(root ast.Node, fn func(n ast.Node, parents []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if !descend {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// funcBodies yields every function body in the file: declarations and
// literals, each paired with its declaring node.
func funcBodies(file *ast.File, fn func(node ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d, d.Body)
			}
		case *ast.FuncLit:
			fn(d, d.Body)
		}
		return true
	})
}

// namedType reports whether t (after stripping pointers and aliases) is the
// named type pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// funcIs reports whether fn is the function or method pkgPath.name (name is
// the bare identifier; the receiver type is not matched here).
func funcIs(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}

// identObj resolves an identifier expression to its object, or nil when the
// expression is not a plain identifier.
func identObj(info *types.Info, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
