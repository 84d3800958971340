package experiments

import "fmt"

// The paper's qualitative findings, as executable checks. cmd/validate
// runs them all and reports pass/fail — the reproduction validating
// itself against the claims EXPERIMENTS.md tracks.

// ClaimResult is the outcome of one claim check.
type ClaimResult struct {
	ID        string
	Statement string
	Pass      bool
	Detail    string
}

// Claim is one verifiable statement from the paper.
type Claim struct {
	ID        string
	Statement string
	Check     func(quick bool, workers int) (bool, string)
}

// Claims returns the paper's testable findings in order.
func Claims() []Claim {
	return []Claim{
		{
			ID:        "C1-cwn-wins",
			Statement: "CWN yields larger speedups than GM in the vast majority of pairings (paper: 118/120)",
			Check: func(quick bool, workers int) (bool, string) {
				rs, err := RunAll(SpeedupSuite(quick), workers)
				if err != nil {
					return false, err.Error()
				}
				s := Summarize(rs)
				frac := float64(s.CWNWins) / float64(s.Pairs)
				return frac >= 0.75, s.String()
			},
		},
		{
			ID:        "C2-grid-margins",
			Statement: "margins are larger on grids (diameter 8-38) than on DLMs (diameter 4-5)",
			Check: func(quick bool, workers int) (bool, string) {
				rs, err := RunAll(SpeedupSuite(quick), workers)
				if err != nil {
					return false, err.Error()
				}
				s := Summarize(rs)
				return s.GridMean > 1 && s.GridMean >= s.DLMMean*0.9,
					fmt.Sprintf("gridMean=%.2f dlmMean=%.2f", s.GridMean, s.DLMMean)
			},
		},
		{
			ID:        "C3-rise-time",
			Statement: "CWN has a much faster rise-time: it spreads work quickly to all PEs at the beginning",
			Check: func(quick bool, workers int) (bool, string) {
				wl := Fib(15)
				if quick {
					wl = Fib(13)
				}
				ts := Grid(10)
				specs := []RunSpec{
					{Topo: ts, Workload: wl, Strategy: PaperCWNFor(ts), SampleInterval: 50, MonitorPE: true},
					{Topo: ts, Workload: wl, Strategy: PaperGMFor(ts), SampleInterval: 50, MonitorPE: true},
				}
				rs, err := RunAll(specs, workers)
				if err != nil {
					return false, err.Error()
				}
				cwn, gm := rs[0].Stats.Monitor, rs[1].Stats.Monitor
				frame := 3 // t=200
				if cwn.Len() <= frame || gm.Len() <= frame {
					return false, "runs too short to compare"
				}
				c, g := cwn.ActivePEs(frame), gm.ActivePEs(frame)
				return c > g, fmt.Sprintf("active PEs at t=200: CWN %d vs GM %d", c, g)
			},
		},
		{
			ID:        "C4-gm-holds-peak",
			Statement: "GM maintains its peak utilization better once reached (it can re-distribute); CWN cannot",
			Check: func(quick bool, workers int) (bool, string) {
				// Plot 11's configuration: the big fib on the 100-PE DLM.
				wl := Fib(18)
				if quick {
					wl = Fib(15)
				}
				ts := DLM(10, 5)
				rs, err := RunAll(TimeSeriesSpecs(ts, wl, 50), workers)
				if err != nil {
					return false, err.Error()
				}
				cwnPeak := rs[0].Stats.Timeline.MaxV()
				gmPeak := rs[1].Stats.Timeline.MaxV()
				return gmPeak >= cwnPeak-10,
					fmt.Sprintf("peak util%%: CWN %.1f vs GM %.1f", cwnPeak, gmPeak)
			},
		},
		{
			ID:        "C5-cwn-comm-3x",
			Statement: "CWN requires roughly thrice the communication: mean goal distance ~3 hops vs <1 for GM, with a spike at the radius",
			Check: func(quick bool, workers int) (bool, string) {
				rs, err := RunAll(HopDistributionSpecs(1, quick), workers)
				if err != nil {
					return false, err.Error()
				}
				cwn, gm := rs[0], rs[1]
				spike := cwn.Stats.GoalHops.Count(9) > 0
				ok := cwn.AvgGoalHops() >= 2*gm.AvgGoalHops() && gm.AvgGoalHops() < 1 && spike
				return ok, fmt.Sprintf("avg hops: CWN %.2f vs GM %.2f, radius spike %d goals",
					cwn.AvgGoalHops(), gm.AvgGoalHops(), cwn.Stats.GoalHops.Count(9))
			},
		},
		{
			ID:        "C6-gm-hoards",
			Statement: "on grids GM flattens: PEs hoard work and utilization stays far below CWN's (the 'vicious cycle')",
			Check: func(quick bool, workers int) (bool, string) {
				wl := Fib(15)
				if quick {
					wl = Fib(13)
				}
				ts := Grid(10)
				rs, err := RunAll([]RunSpec{
					{Topo: ts, Workload: wl, Strategy: PaperCWNFor(ts)},
					{Topo: ts, Workload: wl, Strategy: PaperGMFor(ts)},
				}, workers)
				if err != nil {
					return false, err.Error()
				}
				return rs[0].UtilizationPercent() > 1.5*rs[1].UtilizationPercent() && rs[0].BalanceIndex() > rs[1].BalanceIndex(),
					fmt.Sprintf("util%%: CWN %.1f vs GM %.1f; balance: %.2f vs %.2f",
						rs[0].UtilizationPercent(), rs[1].UtilizationPercent(), rs[0].BalanceIndex(), rs[1].BalanceIndex())
			},
		},
		{
			ID:        "C7-comm-ratio-caveat",
			Statement: "when communication costs rise, CWN loses its edge (paper's closing caveat)",
			Check: func(quick bool, workers int) (bool, string) {
				rs, err := RunAll(CommRatioSpecs(quick), workers)
				if err != nil {
					return false, err.Error()
				}
				cheap := rs[0].Speedup() / rs[1].Speedup()
				costly := rs[len(rs)-2].Speedup() / rs[len(rs)-1].Speedup()
				return costly < cheap,
					fmt.Sprintf("CWN/GM ratio: %.2f at hop=1 vs %.2f at hop=20", cheap, costly)
			},
		},
		{
			ID:        "C8-result-correct",
			Statement: "the simulation computes the program's actual result (ORACLE property)",
			Check: func(quick bool, workers int) (bool, string) {
				r, err := RunSpec{Topo: Grid(5), Workload: Fib(12), Strategy: CWN(5, 1)}.ExecuteErr()
				if err != nil {
					return false, err.Error()
				}
				want := Fib(12).Build().Eval()
				return r.Stats.Result == want,
					fmt.Sprintf("fib(12) = %d (expected %d)", r.Stats.Result, want)
			},
		},
		{
			ID:        "C9-acwn-improves",
			Statement: "adding a small re-distribution component to CWN helps (paper's future-work prediction)",
			Check: func(quick bool, workers int) (bool, string) {
				wl := Fib(15)
				if quick {
					wl = Fib(13)
				}
				ts := Grid(10)
				redist := ACWN(9, 2, 0, 40)
				rs, err := RunAll([]RunSpec{
					{Topo: ts, Workload: wl, Strategy: PaperCWNFor(ts)},
					{Topo: ts, Workload: wl, Strategy: redist},
				}, workers)
				if err != nil {
					return false, err.Error()
				}
				// At minimum, redistribution must not hurt materially.
				return rs[1].Speedup() >= rs[0].Speedup()*0.95,
					fmt.Sprintf("speedup: CWN %.2f vs ACWN-redist %.2f", rs[0].Speedup(), rs[1].Speedup())
			},
		},
		{
			ID:        "C10-no-stagnation",
			Statement: "at the paper's communication ratio no channel saturates (the comparison measures distribution, not bandwidth)",
			Check: func(quick bool, workers int) (bool, string) {
				wl := Fib(15)
				if quick {
					wl = Fib(13)
				}
				var specs []RunSpec
				for _, ts := range []TopoSpec{Grid(10), DLM(10, 5)} {
					for _, strat := range []StrategySpec{PaperCWNFor(ts), PaperGMFor(ts)} {
						specs = append(specs, RunSpec{Topo: ts, Workload: wl, Strategy: strat})
					}
				}
				rs, err := RunAll(specs, workers)
				if err != nil {
					return false, err.Error()
				}
				worst := 0.0
				for _, r := range rs {
					if u := r.Stats.MaxChannelUtilization(); u > worst {
						worst = u
					}
				}
				return worst < 0.95, fmt.Sprintf("worst channel utilization %.1f%%", 100*worst)
			},
		},
	}
}

// RunClaims evaluates every claim and returns the outcomes.
func RunClaims(quick bool, workers int) []ClaimResult {
	var out []ClaimResult
	for _, c := range Claims() {
		pass, detail := c.Check(quick, workers)
		out = append(out, ClaimResult{ID: c.ID, Statement: c.Statement, Pass: pass, Detail: detail})
	}
	return out
}
