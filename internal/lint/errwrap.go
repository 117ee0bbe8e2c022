package lint

import (
	"go/ast"
	"go/constant"
	"strings"

	"scoop/internal/lint/callgraph"
)

// AnalyzerErrWrap reports fmt.Errorf calls that format an error operand with
// a value verb (%v, %s, %q) instead of %w. Scoop's request path crosses the
// connector -> proxy -> storlet stack; the adaptive and retry layers classify
// failures with errors.Is/errors.As, which only see through chains built
// with %w. Formatting with %v flattens the chain to a string and destroys
// that classification.
var AnalyzerErrWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "fmt.Errorf formatting an error operand must use %w so errors.Is/As work through the stack",
	Run:  runErrWrap,
}

func runErrWrap(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !funcIs(callgraph.StaticCallee(pass.Info, call), "fmt", "Errorf") || len(call.Args) < 2 {
				return true
			}
			format, ok := stringConstant(pass, call.Args[0])
			if !ok {
				return true
			}
			for _, v := range parseVerbs(format) {
				argIdx := v.argIndex + 1 // args[0] is the format string
				if v.verb == 'w' || argIdx >= len(call.Args) {
					continue
				}
				if v.verb != 'v' && v.verb != 's' && v.verb != 'q' {
					continue
				}
				arg := call.Args[argIdx]
				if tv, ok := pass.Info.Types[arg]; ok && isErrorType(tv.Type) {
					pass.Reportf(arg.Pos(), "error formatted with %%%c; use %%w so errors.Is/As can unwrap it", v.verb)
				}
			}
			return true
		})
	}
}

// stringConstant evaluates expr to a constant string when possible.
func stringConstant(pass *Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// verb is one formatting directive and the argument index it consumes.
type verb struct {
	verb     rune
	argIndex int
}

// parseVerbs extracts the verbs of a Printf-style format string together with
// the index of the operand each consumes. Width/precision stars consume an
// operand of their own; explicit argument indexes (%[n]v) reposition the
// cursor exactly as the fmt package does.
func parseVerbs(format string) []verb {
	var verbs []verb
	arg := 0
	runes := []rune(format)
	for i := 0; i < len(runes); i++ {
		if runes[i] != '%' {
			continue
		}
		i++
		if i < len(runes) && runes[i] == '%' {
			continue // literal %%
		}
		// Flags.
		for i < len(runes) && strings.ContainsRune("+-# 0", runes[i]) {
			i++
		}
		// Width.
		if i < len(runes) && runes[i] == '*' {
			arg++
			i++
		} else {
			for i < len(runes) && runes[i] >= '0' && runes[i] <= '9' {
				i++
			}
		}
		// Precision.
		if i < len(runes) && runes[i] == '.' {
			i++
			if i < len(runes) && runes[i] == '*' {
				arg++
				i++
			} else {
				for i < len(runes) && runes[i] >= '0' && runes[i] <= '9' {
					i++
				}
			}
		}
		// Explicit argument index: %[n]v.
		if i < len(runes) && runes[i] == '[' {
			j := i + 1
			n := 0
			for j < len(runes) && runes[j] >= '0' && runes[j] <= '9' {
				n = n*10 + int(runes[j]-'0')
				j++
			}
			if j >= len(runes) || runes[j] != ']' || n == 0 {
				return verbs // malformed; stop rather than misattribute operands
			}
			arg = n - 1
			i = j + 1
		}
		if i >= len(runes) {
			break
		}
		verbs = append(verbs, verb{verb: runes[i], argIndex: arg})
		arg++
	}
	return verbs
}
