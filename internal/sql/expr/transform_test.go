package expr

import (
	"testing"

	"scoop/internal/sql/types"
)

func TestTransformDeepCopy(t *testing.T) {
	orig := &Binary{Op: OpAnd,
		Left:  &Not{X: &In{X: col("vid"), List: []Expr{lit(types.Str("a"))}, Negate: true}},
		Right: &IsNull{X: &Call{Name: "UPPER", Args: []Expr{col("city")}}, Negate: true},
	}
	cp := Transform(orig, func(Expr) (Expr, bool) { return nil, false })
	if cp.String() != orig.String() {
		t.Fatalf("copy differs: %s vs %s", cp.String(), orig.String())
	}
	// Mutating the copy's column binding must not touch the original.
	_ = Walk(cp, func(n Expr) error {
		if c, ok := n.(*Column); ok {
			c.Index = 99
		}
		return nil
	})
	_ = Walk(orig, func(n Expr) error {
		if c, ok := n.(*Column); ok && c.Index == 99 {
			t.Fatal("Transform shared column nodes")
		}
		return nil
	})
}

func TestTransformReplacement(t *testing.T) {
	e := &Binary{Op: OpAdd, Left: col("a"), Right: &Neg{X: col("a")}}
	replaced := Transform(e, func(n Expr) (Expr, bool) {
		if c, ok := n.(*Column); ok && c.Name == "a" {
			return lit(types.IntV(7)), true
		}
		return nil, false
	})
	v, err := replaced.Eval(nil)
	if err != nil || v.I != 0 {
		t.Fatalf("7 + (-7) = %v, %v", v, err)
	}
	// Replacement is top-down: replacing the whole tree skips children.
	whole := Transform(e, func(n Expr) (Expr, bool) {
		if _, ok := n.(*Binary); ok {
			return lit(types.Str("gone")), true
		}
		return nil, false
	})
	if whole.String() != "'gone'" {
		t.Errorf("whole = %s", whole.String())
	}
	if Transform(nil, func(Expr) (Expr, bool) { return nil, false }) != nil {
		t.Error("Transform(nil) should be nil")
	}
	// Star and literal nodes pass through.
	if _, ok := Transform(Star{}, func(Expr) (Expr, bool) { return nil, false }).(Star); !ok {
		t.Error("Star not preserved")
	}
}

func TestIsComparison(t *testing.T) {
	for _, op := range []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike} {
		if !op.IsComparison() {
			t.Errorf("%v should be comparison", op)
		}
	}
	for _, op := range []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr} {
		if op.IsComparison() {
			t.Errorf("%v should not be comparison", op)
		}
	}
}

func TestCallStringDistinct(t *testing.T) {
	c := &Call{Name: "count", Args: []Expr{col("city")}, Distinct: true}
	if c.String() != "COUNT(DISTINCT city)" {
		t.Errorf("String = %q", c.String())
	}
}

func TestSlot(t *testing.T) {
	s := &Slot{Index: 1, Of: &Call{Name: "SUM", Args: []Expr{col("index")}}}
	v, err := s.Eval(types.Row{types.Str("a"), types.FloatV(2.5)})
	if err != nil || v.F != 2.5 {
		t.Errorf("Eval = %v, %v", v, err)
	}
	if s.String() != "SUM(index)" {
		t.Errorf("String = %q", s.String())
	}
	// A slot is a leaf: Transform keeps it and Walk does not descend into Of.
	if Transform(s, func(Expr) (Expr, bool) { return nil, false }) != Expr(s) {
		t.Error("Transform copied a Slot")
	}
	if HasAggregate(s) || len(Columns(s)) != 0 {
		t.Error("Walk descended into the expression a Slot stands for")
	}
}
