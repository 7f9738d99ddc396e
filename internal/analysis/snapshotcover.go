// Check snapshotcover: every mutable field reachable from the
// simulator's state roots must be provably written by the restore path.
//
// PR 8 made determinism structural: a resumed run must be byte-identical
// to the uninterrupted one, which holds exactly as long as ImportState
// (and the gob decode feeding it) writes every field the cycle loop can
// mutate. A new field on any struct hanging off Sim — a device bank, a
// mechanism backend's counters, a controller queue — that the restore
// path misses does not fail a test; it silently skews the resumed run.
// This check turns that drift into a diagnostic:
//
//	  1. the *mutability closure*: every module function reachable from
//	    (*Sim).run (interface calls resolved by CHA over the module), and
//	    the set of fields that closure writes;
//	  2. the *coverage closure*: the same computation rooted at
//	    (*Sim).importState;
//	  3. the field graph reachable from Sim itself (pointers, slices,
//	    maps and interface implementations included), stopping where the
//	    restore path overwrites a field wholesale.
//
// A field that is reachable and mutable but neither covered nor
// annotated with //mcrlint:nosnapshot <reason> is a finding. A
// nosnapshot directive without a reason is also a finding — "we skipped
// it" must come with "why it is safe to".
//
// A second, gob-facing obligation applies inside internal/snapshot:
// encoding/gob silently drops unexported fields, so every module struct
// reachable from snapshot.State through exported fields must itself be
// fully exported (or carry a nosnapshot directive on the offending
// field).

package analysis

import (
	"go/types"

	"repro/internal/analysis/shape"
)

// SnapshotCover proves checkpoint coverage of the simulator state graph.
var SnapshotCover = &Analyzer{
	Name:      "snapshotcover",
	Substrate: "shape",
	Doc:       "every mutable field reachable from Sim must be written by ImportState/gob or annotated //mcrlint:nosnapshot",
	Run:       runSnapshotCover,
}

func runSnapshotCover(pass *Pass) {
	if pass.Shape == nil {
		return
	}
	if pass.InPackage("sim") {
		coverSimState(pass)
	}
	if pass.InPackage("snapshot") {
		coverGobVisibility(pass)
	}
}

// coverSimState runs the main obligation from the sim package pass,
// which sees the whole state graph below it.
func coverSimState(pass *Pass) {
	simType := namedStruct(pass.Pkg, "Sim")
	if simType == nil {
		return
	}
	importRoot := methodOf(pass.Pkg, simType, "importState")
	runRoot := methodOf(pass.Pkg, simType, "run")
	if importRoot == nil || runRoot == nil {
		return
	}
	st := pass.Shape
	universe := st.Universe(pass.Pkg)
	covered := st.FieldUses(st.Closure(universe, importRoot))
	mutated := st.FieldUses(st.Closure(universe, runRoot))

	// Demand-driven reachability over the field graph, rooted at Sim.
	seen := map[*types.Named]bool{}
	queue := []*types.Named{simType}
	enqueue := func(n *types.Named) {
		if n != nil && !seen[n] && moduleNamed(st, n) && shape.StructOf(n) != nil {
			seen[n] = true
			queue = append(queue, n)
		}
	}
	seen[simType] = true
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		strct := shape.StructOf(named)
		for i := 0; i < strct.NumFields(); i++ {
			fv := strct.Field(i)
			pos := pass.Fset.Position(fv.Pos())
			if _, ok := st.Nosnapshot(universe, pos); ok {
				continue // excused, subtree included
			}
			cov, mut := covered[fv], mutated[fv]
			if mut != nil && mut.Write && (cov == nil || !cov.Ref) {
				pass.ReportPosf(pos,
					"mutable field %s is reachable from the cycle loop but never written on the restore path; checkpoint/resume silently drops it — move it into the component's State struct or annotate //mcrlint:nosnapshot <reason>",
					fieldQName(named, fv))
			}
			if cov != nil && cov.Whole {
				continue // rebuilt wholesale by the restore path
			}
			for _, next := range fieldTargets(st, universe, fv.Type()) {
				enqueue(next)
			}
		}
	}

	// Every excuse needs a reason.
	for _, d := range st.Directives(universe) {
		if d.Reason == "" {
			pass.ReportPosf(d.Pos, "nosnapshot directive without a reason; state deliberately outside the snapshot must say why that is safe")
		}
	}
}

// coverGobVisibility enforces the gob obligation from the snapshot
// package pass: no unexported fields anywhere gob will walk.
func coverGobVisibility(pass *Pass) {
	stateType := namedStruct(pass.Pkg, "State")
	if stateType == nil {
		return
	}
	st := pass.Shape
	universe := st.Universe(pass.Pkg)
	seen := map[*types.Named]bool{stateType: true}
	queue := []*types.Named{stateType}
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		strct := shape.StructOf(named)
		for i := 0; i < strct.NumFields(); i++ {
			fv := strct.Field(i)
			pos := pass.Fset.Position(fv.Pos())
			if !fv.Exported() {
				if _, ok := st.Nosnapshot(universe, pos); !ok {
					pass.ReportPosf(pos,
						"unexported field %s travels inside snapshot.State: encoding/gob silently drops it, so a restored run diverges — export it or annotate //mcrlint:nosnapshot <reason>",
						fieldQName(named, fv))
				}
				continue // gob never descends into it
			}
			for _, next := range fieldTargets(st, universe, fv.Type()) {
				if next != nil && !seen[next] && moduleNamed(st, next) && shape.StructOf(next) != nil {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
	}
}

// fieldTargets lists the named struct types a field's value can hold:
// the field type itself (through pointers and containers), or — for an
// interface — every module implementation (CHA).
func fieldTargets(st *shape.Store, universe []*types.Package, t types.Type) []*types.Named {
	// Unwrap containers first so []mech.Mechanism reaches the interface.
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		case *types.Map:
			t = u.Elem()
			continue
		}
		break
	}
	if iface, ok := t.Underlying().(*types.Interface); ok && !iface.Empty() {
		return st.Implementations(universe, iface)
	}
	if named := shape.NamedOf(t); named != nil {
		return []*types.Named{named}
	}
	return nil
}

// moduleNamed reports whether the named type lives in a loaded module
// package.
func moduleNamed(st *shape.Store, n *types.Named) bool {
	return n.Obj().Pkg() != nil && st.Resolve(n.Obj().Pkg().Path()) != nil
}

// namedStruct looks a named struct type up in a package scope.
func namedStruct(pkg *types.Package, name string) *types.Named {
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok || shape.StructOf(named) == nil {
		return nil
	}
	return named
}

// methodOf resolves a (possibly pointer-receiver) method on a named type.
func methodOf(pkg *types.Package, named *types.Named, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pkg, name)
	fn, _ := obj.(*types.Func)
	return fn
}

// fieldQName renders "pkg.Type.field" for diagnostics.
func fieldQName(named *types.Named, fv *types.Var) string {
	q := named.Obj().Name() + "." + fv.Name()
	if p := named.Obj().Pkg(); p != nil {
		q = p.Name() + "." + q
	}
	return q
}
