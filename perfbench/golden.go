package main

import (
	"encoding/json"
	"fmt"
	"os"

	"grover/internal/device"
	"grover/internal/vm"
)

// writeGolden runs both sweeps once on interp, the reference engine, and
// writes every case's simulated times, cycles and verdict to path. Each
// launch's output is checked against the app's host reference first.
func writeGolden(path string) error {
	out := goldenFile{}
	for _, name := range []string{"fig2", "fig10"} {
		spec, err := sweepSpec(name)
		if err != nil {
			return err
		}
		cases, err := setupSweep(nil, nil, spec, vm.BackendInterp)
		if err != nil {
			return err
		}
		out[name] = map[string]goldenCase{}
		for _, c := range cases {
			sim, err := device.NewSimulator(c.prof)
			if err != nil {
				return err
			}
			var r [2]float64
			var cyc [2]int64
			for k := 0; k < 2; k++ {
				res, err := c.simulate(sim, k)
				if err == nil {
					err = c.inst.Check()
				}
				if err != nil {
					return fmt.Errorf("%s: %w", c.key, err)
				}
				r[k], cyc[k] = res.TimeMS, res.Cycles
			}
			out[name][c.key] = goldenCase{
				WithLMMS: r[0], WithoutLMMS: r[1],
				WithLMCycles: cyc[0], WithoutLMCycles: cyc[1],
				Verdict: verdict(r[0], r[1]),
			}
			fmt.Fprintf(os.Stderr, "%s %s: %v ms, %v cycles, %s\n", name, c.key, r, cyc, verdict(r[0], r[1]))
		}
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
