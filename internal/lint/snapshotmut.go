package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerSnapshotMut enforces the snapshot immutability contract of
// DESIGN.md §7.1/§7.5: the serving state published through the atomic
// pointer is never mutated after publication. -race cannot catch a
// violation that happens while no query is in flight — the write is
// simply wrong, not racy — so this is checked statically.
//
// In any package that declares a struct type named "snapshot", "shard",
// or "dictionary", every assignment, increment, or delete() whose
// target is reachable through a field of those structs (sh.cubeTable[k]
// = v, next.shards = append(...), sn.stats.X += y, d.codes[ai] = m,
// delete(sh.cubeTable, k)) must occur inside one of the allowlisted
// maintainer functions, which only ever touch state that is not yet
// published:
//
//   - newSnapshot / newShard / newDictionary / Build / Load construct
//     fresh state before the first Store,
//   - successor deep-copies the mutable pieces into an unpublished
//     copy (per shard, so untouched shards stay structurally shared;
//     the dictionary is never copied — value domains are fixed for the
//     cube's lifetime, so successors share it by pointer),
//   - Append rewrites only successor shards and publishes them with
//     one atomic swap.
//
// Everything else — query paths, encoders, serving handlers — may read
// snapshot and shard fields but never write them.
//
// One documented exception lives outside the analyzer's reach by
// construction (DESIGN.md §7.12): each sample a snapshot serves carries
// a write-once wire.Cell that the serving layer fills on the sample's
// first serve. The cell goes from empty to filled exactly once, through
// its own Get method (an atomic store under the cell's mutex), and
// never changes after — so a reader observes no bytes or the final
// bytes, never a change. Nothing is assigned through a snapshot field,
// which is why there is nothing here to flag; a plain assignment to a
// sample's fields from the serving path would still be one if "sample"
// joined the protected set. This is what makes
// the per-shard copy-on-write of §7.5 sound: a shard pointer shared
// between two snapshots is safe exactly because no code path can write
// through it. Type information, when resolved, confirms the written
// field really belongs to one of the protected structs; a selector
// that merely shares a field name is not flagged.
func AnalyzerSnapshotMut() *Analyzer {
	return &Analyzer{
		Name: "snapshotmut",
		Doc:  "snapshot and shard fields may only be written by allowlisted maintainer functions",
		Run:  runSnapshotMut,
	}
}

// snapshotMutTypes are the struct type names whose fields are
// write-protected outside the maintainer set.
var snapshotMutTypes = map[string]bool{
	"snapshot":   true,
	"shard":      true,
	"dictionary": true,
}

// snapshotMutAllowed are the maintainer functions permitted to write
// protected fields (see the analyzer doc for why each is safe).
var snapshotMutAllowed = map[string]bool{
	"newSnapshot":   true,
	"newShard":      true,
	"newDictionary": true,
	"Build":         true,
	"successor":     true,
	"Load":          true,
	"Append":        true,
}

func runSnapshotMut(p *Package) []Finding {
	fieldOwner, named := snapshotMutFields(p)
	if len(fieldOwner) == 0 {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || snapshotMutAllowed[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						if sel, owner := protectedFieldSel(p, lhs, fieldOwner, named); sel != nil {
							out = append(out, p.finding(lhs,
								"write to %s field %q outside the maintainer set (%s); published snapshots are immutable — build a successor instead",
								owner, sel.Sel.Name, allowedNames()))
						}
					}
				case *ast.IncDecStmt:
					if sel, owner := protectedFieldSel(p, st.X, fieldOwner, named); sel != nil {
						out = append(out, p.finding(st,
							"write to %s field %q outside the maintainer set (%s); published snapshots are immutable — build a successor instead",
							owner, sel.Sel.Name, allowedNames()))
					}
				case *ast.CallExpr:
					if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "delete" && len(st.Args) > 0 {
						if sel, owner := protectedFieldSel(p, st.Args[0], fieldOwner, named); sel != nil {
							out = append(out, p.finding(st,
								"delete from %s map field %q outside the maintainer set (%s); published snapshots are immutable — build a successor instead",
								owner, sel.Sel.Name, allowedNames()))
						}
					}
				}
				return true
			})
		}
	}
	return out
}

func allowedNames() string {
	return "newSnapshot/newShard/newDictionary/Build/successor/Load/Append"
}

// snapshotMutFields collects the field names of the package's
// protected structs (field name -> owning struct name) and their
// types.Named forms (named type object -> struct name; empty when type
// info is unavailable).
func snapshotMutFields(p *Package) (map[string]string, map[*types.TypeName]string) {
	fieldOwner := make(map[string]string)
	named := make(map[*types.TypeName]string)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !snapshotMutTypes[ts.Name.Name] {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					fieldOwner[name.Name] = ts.Name.Name
				}
			}
			if obj, ok := p.Info.Defs[ts.Name]; ok && obj != nil {
				if nt, ok := obj.Type().(*types.Named); ok {
					named[nt.Obj()] = ts.Name.Name
				}
			}
			return true
		})
	}
	return fieldOwner, named
}

// protectedFieldSel returns the selector through which expr writes a
// protected field, plus the owning struct's name, or (nil, ""). It
// unwraps index expressions and nested selectors, so sn.stats.X and
// sh.cubeTable[k] both resolve to their protected field.
func protectedFieldSel(p *Package, expr ast.Expr, fieldOwner map[string]string, named map[*types.TypeName]string) (*ast.SelectorExpr, string) {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if owner, ok := fieldOwner[e.Sel.Name]; ok {
				if resolved, ok2 := selRecvProtected(p, e, named); ok2 {
					if resolved != "" {
						owner = resolved
					}
					return e, owner
				}
			}
			expr = e.X
		default:
			return nil, ""
		}
	}
}

// selRecvProtected confirms (via type info, when resolved) that the
// selector's receiver is one of the protected structs, returning its
// name. Without type info it accepts the name match with an empty
// owner — the structs are unexported, so any same-package selector
// sharing a field name is close enough to deserve a look.
func selRecvProtected(p *Package, sel *ast.SelectorExpr, named map[*types.TypeName]string) (string, bool) {
	s, ok := p.Info.Selections[sel]
	if !ok {
		return "", true
	}
	if len(named) == 0 {
		return "", true
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	nt, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	owner, ok := named[nt.Obj()]
	return owner, ok
}
