package experiments

import (
	"fmt"
	"strings"

	"distcount/internal/counter"
	"distcount/internal/counters/combining"
	"distcount/internal/counters/difftree"
	"distcount/internal/loadstat"
	"distcount/internal/sim"
)

// E10 leaves the paper's sequential regime to reproduce what the related
// work was built for: under concurrent operations, combining trees (YTL'87,
// GVW'89) merge requests and diffracting trees (SZ'94) pair tokens, so the
// root hot spot cools as the window opens — while in the sequential regime
// (window 0, which is also the adversary's regime) neither helps, which is
// why the paper's lower bound applies to them with full force.
//
// All n processors start an operation at t=0; the table reports root-host
// load, merge/diffraction counts, and total messages per window setting,
// plus a correctness check (all assigned values distinct).
func E10(cfg Config) (string, error) {
	n := 64
	if cfg.Quick {
		n = 16
	}
	windows := []int64{0, 4, 16, 64}

	var b strings.Builder
	fmt.Fprintf(&b, "concurrent regime: %d simultaneous operations, varying window\n\n", n)

	ctb := loadstat.NewTable("combining window", "root-host load", "combined", "total msgs", "values distinct")
	for _, w := range windows {
		row, err := E10Combining(n, w)
		if err != nil {
			return "", err
		}
		ctb.AddRow(w, row.RootLoad, row.Merged, row.Total, row.Distinct)
	}
	b.WriteString("combining tree:\n")
	b.WriteString(ctb.String())

	dtb := loadstat.NewTable("prism window", "root toggles", "diffracted pairs", "total msgs", "values distinct")
	for _, w := range windows {
		row, err := E10Difftree(n, w)
		if err != nil {
			return "", err
		}
		dtb.AddRow(w, row.RootLoad, row.Merged, row.Total, row.Distinct)
	}
	b.WriteString("\ndiffracting tree (width 8):\n")
	b.WriteString(dtb.String())
	return b.String(), nil
}

// E10Row is one concurrency measurement.
type E10Row struct {
	Window   int64
	RootLoad int64
	Merged   int64
	Total    int64
	Distinct bool
}

// E10Combining runs n simultaneous operations on a combining tree with the
// given window.
func E10Combining(n int, window int64) (E10Row, error) {
	c := counter.NewSim(combining.NewMachine(n, combining.WithWindow(window)))
	distinct, err := runSimultaneous(c)
	if err != nil {
		return E10Row{}, err
	}
	pr := c.Net().Protocol()
	return E10Row{
		Window:   window,
		RootLoad: c.Net().Load(combining.RootHost(pr)),
		Merged:   combining.Combined(pr),
		Total:    c.Net().MessagesTotal(),
		Distinct: distinct,
	}, nil
}

// E10Difftree runs n simultaneous operations on a diffracting tree with the
// given prism window.
func E10Difftree(n int, window int64) (E10Row, error) {
	c := counter.NewSim(difftree.NewMachine(n, difftree.WithWidth(8), difftree.WithWindow(window)))
	distinct, err := runSimultaneous(c)
	if err != nil {
		return E10Row{}, err
	}
	pr := c.Net().Protocol()
	return E10Row{
		Window:   window,
		RootLoad: difftree.RootToggles(pr),
		Merged:   difftree.Diffracted(pr),
		Total:    c.Net().MessagesTotal(),
		Distinct: distinct,
	}, nil
}

// runSimultaneous starts one operation per processor at t=0, runs the
// network to quiescence and reports whether the values are exactly 0..n-1.
func runSimultaneous(c *counter.Sim) (bool, error) {
	n := c.N()
	ids := make([]sim.OpID, n)
	for p := 1; p <= n; p++ {
		ids[p-1] = c.Start(0, sim.ProcID(p))
	}
	if err := c.Net().Run(); err != nil {
		return false, err
	}
	seen := make([]bool, n)
	for i, id := range ids {
		p := i + 1
		v, ok := c.OpValue(id)
		if !ok {
			return false, fmt.Errorf("processor %d received no value", p)
		}
		if v < 0 || v >= n || seen[v] {
			return false, nil
		}
		seen[v] = true
	}
	return true, nil
}
