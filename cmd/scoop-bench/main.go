// Command scoop-bench regenerates the paper's evaluation tables and
// figures. Each experiment prints the paper's reported values next to this
// reproduction's (real-path measurements at laptop scale plus testbed-model
// projections at the paper's 50GB–3TB scales).
//
// Usage:
//
//	scoop-bench -all
//	scoop-bench -fig 5
//	scoop-bench -table 1 -scale medium
package main

import (
	"flag"
	"fmt"
	"os"

	"scoop/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scoop-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.Int("fig", 0, "regenerate one figure (1, 5, 6, 7, 8, 9, 10)")
	tableN := flag.Int("table", 0, "regenerate one table (1)")
	all := flag.Bool("all", false, "regenerate everything")
	scale := flag.String("scale", "small", "real-path dataset scale: small or medium")
	flag.Parse()

	if !*all && *fig == 0 && *tableN == 0 {
		flag.Usage()
		return fmt.Errorf("pick -all, -fig N or -table N")
	}

	var sc experiment.Scale
	switch *scale {
	case "small":
		sc = experiment.SmallScale()
	case "medium":
		sc = experiment.MediumScale()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}

	// Figures 1 and 6 are model-only; everything else needs the env.
	needEnv := *all || *tableN == 1 || *fig == 5 || *fig == 7 || *fig == 8 || *fig == 9 || *fig == 10
	var env *experiment.Env
	if needEnv {
		fmt.Fprintf(os.Stderr, "scoop-bench: building %s-scale environment...\n", *scale)
		var err error
		env, err = experiment.NewEnv(sc)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scoop-bench: dataset ready (%d rows, %d bytes)\n\n", env.Rows, env.DatasetBytes)
	}

	w := os.Stdout
	runOne := func(name string, fn func() error) error {
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w)
		return nil
	}
	type exp struct {
		fig   int
		table int
		name  string
		fn    func() error
	}
	exps := []exp{
		{fig: 1, name: "fig1", fn: func() error { return experiment.Fig1(w) }},
		{table: 1, name: "table1", fn: func() error { return experiment.Table1(w, env) }},
		{fig: 5, name: "fig5", fn: func() error { return experiment.Fig5(w, env) }},
		{fig: 6, name: "fig6", fn: func() error { return experiment.Fig6(w) }},
		{fig: 7, name: "fig7", fn: func() error { return experiment.Fig7(w, env) }},
		{fig: 8, name: "fig8", fn: func() error { return experiment.Fig8(w, env) }},
		{fig: 9, name: "fig9", fn: func() error { return experiment.Fig9(w, env) }},
		{fig: 10, name: "fig10", fn: func() error { return experiment.Fig10(w, env) }},
	}
	matched := false
	for _, e := range exps {
		if *all || (*fig != 0 && e.fig == *fig) || (*tableN != 0 && e.table == *tableN) {
			matched = true
			if err := runOne(e.name, e.fn); err != nil {
				return err
			}
		}
	}
	if !matched {
		return fmt.Errorf("no experiment matches -fig %d / -table %d", *fig, *tableN)
	}
	return nil
}
