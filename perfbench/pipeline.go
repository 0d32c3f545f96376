package main

import (
	"fmt"

	"grover/internal/apps"
	"grover/internal/clc"
	igrover "grover/internal/grover"
	"grover/internal/ir"
	"grover/internal/lower"
	"grover/internal/vm"
	"grover/opencl"
)

// compileApp builds an app's two kernel versions on cl the way the
// harness does, through the program's own entry points: CompileProgramCtx,
// then WithLocalMemoryDisabledCtx, then every named backend's executor for
// both versions. With a ledger, those entry points record their pipeline
// spans (clc.*, lower, opt, vm.prepare, grover.transform, <backend>.compile)
// into the ledger's trace; the benchmark adds none around them. Index 0
// of the result keeps local memory; index 1 is the Grover version.
func compileApp(l *ledger, m metrics, cl *opencl.Context, app *apps.App, backends ...string) ([2]*vm.Program, error) {
	var progs [2]*vm.Program
	ctx := l.context()
	base, err := cl.CompileProgramCtx(ctx, app.ID+".cl", app.Source, app.Defines)
	if err != nil {
		return progs, fmt.Errorf("%s: %w", app.ID, err)
	}
	grover, _, err := base.WithLocalMemoryDisabledCtx(ctx, app.Kernel,
		igrover.Options{Candidates: app.Candidates, Strict: true})
	if err != nil {
		return progs, fmt.Errorf("%s: transform: %w", app.ID, err)
	}
	progs = [2]*vm.Program{base.VM(), grover.VM()}
	for _, b := range backends {
		if b == vm.BackendInterp {
			continue // the interpreter runs the prepared program itself
		}
		for _, p := range progs {
			if _, err := p.ExecutorCtx(ctx, b); err != nil {
				return progs, fmt.Errorf("%s: %w", app.ID, err)
			}
		}
	}
	if l != nil {
		if err := countFrontEnd(m, app.ID+".cl", app.Source, app.Defines); err != nil {
			return progs, fmt.Errorf("%s: %w", app.ID, err)
		}
		l.count(m, "opt.ir_instrs", irInstrs(base.Module())+irInstrs(grover.Module()))
	}
	return progs, nil
}

// countFrontEnd adds the front end's work on a source to clc.tokens and
// lower.ir_instrs: the tokens of the preprocessed source and the
// instructions lowering emits before opt. The program exposes neither, so
// they are counted here, outside every span and only in traced runs.
func countFrontEnd(m metrics, name, src string, defines map[string]string) error {
	all := clc.PredefinedMacros()
	for k, v := range defines {
		all[k] = v
	}
	pp, err := clc.NewPreprocessor(all)
	if err != nil {
		return err
	}
	expanded, err := pp.Process(name, src)
	if err != nil {
		return err
	}
	toks, err := clc.LexAll(name, expanded)
	if err != nil {
		return err
	}
	file, err := clc.Parse(name, src, defines)
	if err != nil {
		return err
	}
	mod, err := lower.Module(file)
	if err != nil {
		return err
	}
	m["clc.tokens"] += float64(len(toks))
	m["lower.ir_instrs"] += float64(irInstrs(mod))
	return nil
}

// irInstrs counts the instructions of every function in a module.
func irInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}
