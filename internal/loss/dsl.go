package loss

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/geo"
)

// Compile turns a parsed CREATE AGGREGATE declaration into an executable
// loss function. The body is a scalar expression over aggregate atoms that
// reference the Raw and Sam datasets; Tabula requires every atom to be
// distributive or algebraic so the dry run can evaluate the loss per cube
// cell from one table scan.
//
// Supported atoms (param is the declared Raw or Sam parameter name):
//
//	AVG(param) SUM(param) COUNT(param) MIN(param) MAX(param)
//	STDDEV(param) VAR(param)        — over the first target attribute
//	AVG(param.col) …                — over an explicit column
//	SLOPE(param), ANGLE(param)      — least-squares fit of the second
//	                                  target attribute on the first
//	AVGMINDIST(rawParam, samParam)  — Function 2's average minimum
//	                                  distance on the first target
//	                                  attribute (1-D numeric, or 2-D when
//	                                  the attribute is a POINT column)
//
// The remaining expression may use arithmetic and the builtin scalar
// functions (ABS, SQRT, …). The paper's Function 1 compiles from
// "ABS(AVG(Raw) - AVG(Sam)) / AVG(Raw)", and Function 3 from
// "ABS(ANGLE(Raw) - ANGLE(Sam))".
//
// targets supplies the target attribute names ([attr] for scalar losses,
// [x, y] for SLOPE/ANGLE). metric selects the distance for a 2-D
// AVGMINDIST. If the body evaluates to NaN (e.g. AVG of an empty sample),
// the loss is reported as +Inf, which keeps the greedy sampler sound.
func Compile(decl *engine.CreateAggregate, targets []string, metric geo.Metric) (Func, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("loss: CREATE AGGREGATE %s needs at least one target attribute", decl.Name)
	}
	d := &DSL{decl: decl, targets: targets, metric: metric}
	if err := d.analyze(); err != nil {
		return nil, err
	}
	return d, nil
}

// DSL is a loss function compiled from the CREATE AGGREGATE dialect.
type DSL struct {
	decl    *engine.CreateAggregate
	targets []string
	metric  geo.Metric
	atoms   []*dslAtom
}

type atomKind int

const (
	atomAgg atomKind = iota
	atomSlope
	atomAngle
	atomAvgMinDist
)

// dslAtom is one aggregate call in the body. key is the printed form of
// the call, used to substitute the computed value back into the
// expression.
type dslAtom struct {
	key     string
	kind    atomKind
	aggName string // for atomAgg
	column  string // resolved lazily against each view's schema
	onRaw   bool   // references Raw (true) or Sam (false); AVGMINDIST spans both
}

// analyze walks the body, classifying every Call into an atom or a builtin
// scalar and rejecting anything else (holistic aggregates like MEDIAN
// cannot appear — the paper's algebraic restriction).
func (d *DSL) analyze() error {
	var walk func(e engine.Expr) error
	walk = func(e engine.Expr) error {
		switch x := e.(type) {
		case *engine.Binary:
			if err := walk(x.L); err != nil {
				return err
			}
			return walk(x.R)
		case *engine.Unary:
			return walk(x.X)
		case *engine.Call:
			if atom, ok, err := d.classify(x); err != nil {
				return err
			} else if ok {
				d.addAtom(atom)
				return nil
			}
			if !isBuiltinScalarName(x.Name) {
				return fmt.Errorf("loss: %s is neither an algebraic aggregate atom nor a builtin scalar", x.Name)
			}
			for _, a := range x.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
			return nil
		case *engine.ColRef:
			return fmt.Errorf("loss: bare column reference %s outside an aggregate", x.String())
		case *engine.Lit:
			return nil
		default:
			return fmt.Errorf("loss: unsupported expression node %T", e)
		}
	}
	if err := walk(d.decl.Body); err != nil {
		return err
	}
	if len(d.atoms) == 0 {
		return fmt.Errorf("loss: body of %s references no aggregate atoms", d.decl.Name)
	}
	return nil
}

func isBuiltinScalarName(name string) bool {
	switch strings.ToUpper(name) {
	case "ABS", "SQRT", "LN", "EXP", "POW", "ATAN", "DEGREES", "LEAST", "GREATEST":
		return true
	}
	return false
}

func (d *DSL) addAtom(a *dslAtom) {
	for _, prev := range d.atoms {
		if prev.key == a.key {
			return
		}
	}
	d.atoms = append(d.atoms, a)
}

// paramSide decides whether an argument expression names the Raw or Sam
// parameter; it also extracts an explicit column from "param.col" form.
func (d *DSL) paramSide(arg engine.Expr) (onRaw bool, column string, ok bool) {
	cr, isRef := arg.(*engine.ColRef)
	if !isRef {
		return false, "", false
	}
	name := cr.Name
	if cr.Qualifier != "" {
		// param.col form.
		if strings.EqualFold(cr.Qualifier, d.decl.RawName) {
			return true, cr.Name, true
		}
		if strings.EqualFold(cr.Qualifier, d.decl.SamName) {
			return false, cr.Name, true
		}
		return false, "", false
	}
	if strings.EqualFold(name, d.decl.RawName) {
		return true, d.targets[0], true
	}
	if strings.EqualFold(name, d.decl.SamName) {
		return false, d.targets[0], true
	}
	return false, "", false
}

func (d *DSL) classify(c *engine.Call) (*dslAtom, bool, error) {
	up := strings.ToUpper(c.Name)
	switch up {
	case "AVG", "SUM", "COUNT", "MIN", "MAX", "STDDEV", "VAR":
		if len(c.Args) != 1 {
			return nil, false, nil
		}
		onRaw, col, ok := d.paramSide(c.Args[0])
		if !ok {
			return nil, false, nil // e.g. nested scalar usage; treated elsewhere
		}
		return &dslAtom{key: c.String(), kind: atomAgg, aggName: up, column: col, onRaw: onRaw}, true, nil
	case "SLOPE", "ANGLE":
		if len(c.Args) != 1 {
			return nil, false, fmt.Errorf("loss: %s expects one dataset argument", up)
		}
		onRaw, _, ok := d.paramSide(c.Args[0])
		if !ok {
			return nil, false, fmt.Errorf("loss: %s argument must be %s or %s", up, d.decl.RawName, d.decl.SamName)
		}
		if len(d.targets) < 2 {
			return nil, false, fmt.Errorf("loss: %s needs two target attributes (x, y)", up)
		}
		kind := atomSlope
		if up == "ANGLE" {
			kind = atomAngle
		}
		return &dslAtom{key: c.String(), kind: kind, onRaw: onRaw}, true, nil
	case "AVGMINDIST":
		if len(c.Args) != 2 {
			return nil, false, fmt.Errorf("loss: AVGMINDIST expects (raw, sam)")
		}
		r1, _, ok1 := d.paramSide(c.Args[0])
		r2, _, ok2 := d.paramSide(c.Args[1])
		if !ok1 || !ok2 || !r1 || r2 {
			return nil, false, fmt.Errorf("loss: AVGMINDIST arguments must be (%s, %s)", d.decl.RawName, d.decl.SamName)
		}
		return &dslAtom{key: c.String(), kind: atomAvgMinDist, column: d.targets[0]}, true, nil
	}
	return nil, false, nil
}

// Name implements Func.
func (d *DSL) Name() string { return d.decl.Name }

// Unit implements Func.
func (d *DSL) Unit() string { return "custom" }

// Body returns the compiled body expression (for display).
func (d *DSL) Body() engine.Expr { return d.decl.Body }

// nanAsInf maps NaN results to +Inf (undefined losses count as maximal).
func nanAsInf(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// atomValue computes one atom over the given views.
func (d *DSL) atomValue(a *dslAtom, raw, sam dataset.View) (float64, error) {
	side := raw
	if !a.onRaw {
		side = sam
	}
	switch a.kind {
	case atomAgg:
		col, err := resolveNumeric(side.Table.Schema(), a.column)
		if err != nil {
			return 0, err
		}
		f, err := engine.NewAggFunc(a.aggName)
		if err != nil {
			return 0, err
		}
		return engine.AggregateView(side, col, f).Float(), nil
	case atomSlope, atomAngle:
		xCol, err := resolveNumeric(side.Table.Schema(), d.targets[0])
		if err != nil {
			return 0, err
		}
		yCol, err := resolveNumeric(side.Table.Schema(), d.targets[1])
		if err != nil {
			return 0, err
		}
		st := regStateOf(side, xCol, yCol)
		if a.kind == atomSlope {
			return st.Slope(), nil
		}
		return st.Angle(), nil
	case atomAvgMinDist:
		return d.avgMinDist(raw, sam)
	}
	return 0, fmt.Errorf("loss: bad atom kind %d", a.kind)
}

func (d *DSL) avgMinDist(raw, sam dataset.View) (float64, error) {
	idx := raw.Table.Schema().ColumnIndex(d.targets[0])
	if idx < 0 {
		return 0, fmt.Errorf("loss: unknown column %q", d.targets[0])
	}
	if raw.Table.Schema()[idx].Type == dataset.Point {
		h := NewHeatmap(d.targets[0], d.metric)
		return h.Loss(raw, sam), nil
	}
	h := NewHistogram(d.targets[0])
	return h.Loss(raw, sam), nil
}

// evalBody evaluates the body expression with atom values substituted.
func (d *DSL) evalBody(atomVals map[string]float64) (float64, error) {
	v, err := evalSubstituted(d.decl.Body, atomVals)
	if err != nil {
		return 0, err
	}
	return nanAsInf(v), nil
}

// nullEnv rejects all free references; substituted expressions must be
// closed.
type nullEnv struct{}

func (nullEnv) ColumnValue(q, name string) (dataset.Value, error) {
	return dataset.Value{}, fmt.Errorf("loss: unbound reference %s.%s", q, name)
}
func (nullEnv) CallFunc(name string, args []dataset.Value) (dataset.Value, error) {
	return dataset.Value{}, engine.ErrUnknownFunc
}

// evalSubstituted walks e, replacing atom calls by literals and delegating
// operators and builtin scalars to the engine evaluator.
func evalSubstituted(e engine.Expr, atoms map[string]float64) (float64, error) {
	switch x := e.(type) {
	case *engine.Lit:
		return x.V.Float(), nil
	case *engine.Call:
		if v, ok := atoms[x.String()]; ok {
			return v, nil
		}
		args := make([]engine.Expr, len(x.Args))
		for i, a := range x.Args {
			av, err := evalSubstituted(a, atoms)
			if err != nil {
				return 0, err
			}
			args[i] = &engine.Lit{V: dataset.FloatValue(av)}
		}
		v, err := engine.Eval(&engine.Call{Name: x.Name, Args: args}, nullEnv{})
		if err != nil {
			return 0, err
		}
		return v.Float(), nil
	case *engine.Binary:
		l, err := evalSubstituted(x.L, atoms)
		if err != nil {
			return 0, err
		}
		r, err := evalSubstituted(x.R, atoms)
		if err != nil {
			return 0, err
		}
		v, err := engine.Eval(&engine.Binary{
			Op: x.Op,
			L:  &engine.Lit{V: dataset.FloatValue(l)},
			R:  &engine.Lit{V: dataset.FloatValue(r)},
		}, nullEnv{})
		if err != nil {
			return 0, err
		}
		return v.Float(), nil
	case *engine.Unary:
		xv, err := evalSubstituted(x.X, atoms)
		if err != nil {
			return 0, err
		}
		v, err := engine.Eval(&engine.Unary{Op: x.Op, X: &engine.Lit{V: dataset.FloatValue(xv)}}, nullEnv{})
		if err != nil {
			return 0, err
		}
		return v.Float(), nil
	default:
		return 0, fmt.Errorf("loss: unsupported node %T", e)
	}
}

// Loss implements Func.
func (d *DSL) Loss(raw, sam dataset.View) float64 {
	atomVals := make(map[string]float64, len(d.atoms))
	for _, a := range d.atoms {
		v, err := d.atomValue(a, raw, sam)
		if err != nil {
			panic(err)
		}
		atomVals[a.key] = v
	}
	v, err := d.evalBody(atomVals)
	if err != nil {
		panic(err)
	}
	return v
}

// --- Dry-run (algebraic) evaluation -------------------------------------

// dslCellState is the composite per-cell state: one sub-state per
// Raw-referencing atom, in the evaluator's atom order.
type dslCellState struct {
	aggs []engine.AggState         // for atomAgg entries (nil elsewhere)
	regs []*engine.RegressionState // for slope/angle entries
	amd  []*heatmapCellState       // for avg-min-dist entries
}

type dslCellEvaluator struct {
	d *DSL
	// Per raw atom: the machinery to fold rows.
	rawAtoms []*dslAtom
	aggFns   []engine.AggFunc
	colVals  [][]float64 // per raw atom needing a column: values by row
	xs, ys   []float64   // regression inputs, when needed
	// amdDist returns, for a table row, the distance to the fixed sample
	// (nil when the body has no AVGMINDIST atom).
	amdDist func(row int32) float64
	// Sam-side constants.
	samVals map[string]float64
	bytes   int64
}

// BindSample implements DryRunner.
func (d *DSL) BindSample(table *dataset.Table, sam dataset.View) (CellEvaluator, error) {
	ev := &dslCellEvaluator{d: d}
	for _, a := range d.atoms {
		if !a.onRaw && a.kind != atomAvgMinDist {
			continue // a sample-side constant: bindSam's
		}
		ev.rawAtoms = append(ev.rawAtoms, a)
		switch a.kind {
		case atomAgg:
			f, err := engine.NewAggFunc(a.aggName)
			if err != nil {
				return nil, err
			}
			ev.aggFns = append(ev.aggFns, f)
			col, err := resolveNumeric(table.Schema(), a.column)
			if err != nil {
				return nil, err
			}
			ev.colVals = append(ev.colVals, numericColumn(table, col))
			ev.bytes += 24
		case atomSlope, atomAngle:
			if ev.xs == nil {
				xCol, err := resolveNumeric(table.Schema(), d.targets[0])
				if err != nil {
					return nil, err
				}
				yCol, err := resolveNumeric(table.Schema(), d.targets[1])
				if err != nil {
					return nil, err
				}
				ev.xs, ev.ys = numericColumn(table, xCol), numericColumn(table, yCol)
			}
			ev.aggFns = append(ev.aggFns, nil)
			ev.colVals = append(ev.colVals, nil)
			ev.bytes += 40
		case atomAvgMinDist:
			dist, err := d.bindAMD(table, sam)
			if err != nil {
				return nil, err
			}
			ev.amdDist = dist
			ev.aggFns = append(ev.aggFns, nil)
			ev.colVals = append(ev.colVals, nil)
			ev.bytes += 16
		}
	}
	if err := ev.bindSam(sam); err != nil {
		return nil, err
	}
	if ev.amdDist != nil {
		return ev, nil // Add reads the sample: no raw summaries
	}
	return dslRawEvaluator{ev}, nil
}

// bindSam computes the sample-side constants of the body.
func (e *dslCellEvaluator) bindSam(sam dataset.View) error {
	e.samVals = make(map[string]float64)
	for _, a := range e.d.atoms {
		if a.onRaw || a.kind == atomAvgMinDist {
			continue
		}
		v, err := e.d.atomValue(a, dataset.View{}, sam) // the raw side is unused
		if err != nil {
			return err
		}
		e.samVals[a.key] = v
	}
	return nil
}

// dslRawEvaluator is the evaluator of a body without an AVGMINDIST atom:
// only the constants of bindSam depend on the sample.
type dslRawEvaluator struct{ *dslCellEvaluator }

// Rebind implements RawSummarizer.
func (e dslRawEvaluator) Rebind(sam dataset.View) (CellEvaluator, error) {
	ev := *e.dslCellEvaluator
	if err := ev.bindSam(sam); err != nil {
		return nil, err
	}
	return dslRawEvaluator{&ev}, nil
}

// bindAMD builds the row→min-distance function against a fixed sample.
func (d *DSL) bindAMD(table *dataset.Table, sam dataset.View) (func(row int32) float64, error) {
	idx := table.Schema().ColumnIndex(d.targets[0])
	if idx < 0 {
		return nil, fmt.Errorf("loss: unknown column %q", d.targets[0])
	}
	if sam.Len() == 0 {
		return func(int32) float64 { return math.Inf(1) }, nil
	}
	if table.Schema()[idx].Type == dataset.Point {
		pts := table.Points(idx)
		samIdx, err := resolvePoint(sam.Table.Schema(), d.targets[0])
		if err != nil {
			return nil, err
		}
		grid := geo.NewGridIndex(d.metric, sam.PointsOf(samIdx), 4)
		return func(row int32) float64 { return grid.NearestDistance(pts[row]) }, nil
	}
	vals := numericColumn(table, idx)
	samIdx, err := resolveNumeric(sam.Table.Schema(), d.targets[0])
	if err != nil {
		return nil, err
	}
	sorted := sam.FloatsOf(samIdx)
	sort.Float64s(sorted)
	return func(row int32) float64 { return nearest1D(sorted, vals[row]) }, nil
}

func (e *dslCellEvaluator) NewState() CellState {
	st := &dslCellState{
		aggs: make([]engine.AggState, len(e.rawAtoms)),
		regs: make([]*engine.RegressionState, len(e.rawAtoms)),
		amd:  make([]*heatmapCellState, len(e.rawAtoms)),
	}
	for i, a := range e.rawAtoms {
		switch a.kind {
		case atomAgg:
			st.aggs[i] = e.aggFns[i].NewState()
		case atomSlope, atomAngle:
			st.regs[i] = &engine.RegressionState{}
		case atomAvgMinDist:
			st.amd[i] = &heatmapCellState{}
		}
	}
	return st
}

func (e *dslCellEvaluator) Add(st CellState, row int32) {
	s := st.(*dslCellState)
	for i, a := range e.rawAtoms {
		switch a.kind {
		case atomAgg:
			if a.aggName == "COUNT" {
				s.aggs[i].Add(dataset.IntValue(1))
			} else {
				s.aggs[i].Add(dataset.FloatValue(e.colVals[i][row]))
			}
		case atomSlope, atomAngle:
			s.regs[i].AddXY(e.xs[row], e.ys[row])
		case atomAvgMinDist:
			s.amd[i].sumMin += e.amdDist(row)
			s.amd[i].n++
		}
	}
}

func (e *dslCellEvaluator) Merge(dst, src CellState) {
	ds, ss := dst.(*dslCellState), src.(*dslCellState)
	for i, a := range e.rawAtoms {
		switch a.kind {
		case atomAgg:
			ds.aggs[i].Merge(ss.aggs[i])
		case atomSlope, atomAngle:
			ds.regs[i].MergeReg(ss.regs[i])
		case atomAvgMinDist:
			ds.amd[i].sumMin += ss.amd[i].sumMin
			ds.amd[i].n += ss.amd[i].n
		}
	}
}

func (e *dslCellEvaluator) Loss(st CellState) float64 {
	s := st.(*dslCellState)
	atomVals := make(map[string]float64, len(e.d.atoms))
	for k, v := range e.samVals {
		atomVals[k] = v
	}
	for i, a := range e.rawAtoms {
		switch a.kind {
		case atomAgg:
			atomVals[a.key] = s.aggs[i].Value().Float()
		case atomSlope:
			atomVals[a.key] = s.regs[i].Slope()
		case atomAngle:
			atomVals[a.key] = s.regs[i].Angle()
		case atomAvgMinDist:
			if s.amd[i].n == 0 {
				atomVals[a.key] = 0
			} else {
				atomVals[a.key] = s.amd[i].sumMin / float64(s.amd[i].n)
			}
		}
	}
	v, err := e.d.evalBody(atomVals)
	if err != nil {
		panic(err)
	}
	return v
}

func (e *dslCellEvaluator) StateBytes() int64 {
	if e.bytes == 0 {
		return 16
	}
	return e.bytes
}

// --- Greedy evaluation ----------------------------------------------------

// dslGreedy evaluates the body while the sample grows. Raw-side atoms are
// constants; Sam-side agg and regression atoms maintain cheap incremental
// states; an AVGMINDIST atom maintains the min-distance array like the
// built-in Heatmap/Histogram losses.
type dslGreedy struct {
	d        *DSL
	n        int
	rawConst map[string]float64
	// Sam agg atoms.
	aggAtoms  []*dslAtom
	aggStates []engine.AggState
	aggVals   [][]float64
	// Sam regression atoms.
	regAtoms []*dslAtom
	regState engine.RegressionState
	regXs    []float64
	regYs    []float64
	// AVGMINDIST atom.
	amdAtom *dslAtom
	amdDist func(i, j int) float64 // distance between raw tuples i, j
	minDist []float64
	samN    int
}

// NewGreedy implements GreedyCapable.
func (d *DSL) NewGreedy(raw dataset.View) (GreedyEvaluator, error) {
	g := &dslGreedy{d: d, n: raw.Len(), rawConst: make(map[string]float64)}
	for _, a := range d.atoms {
		a := a
		switch {
		case a.kind == atomAvgMinDist:
			if err := g.bindAMDGreedy(raw); err != nil {
				return nil, err
			}
			g.amdAtom = a
		case a.onRaw:
			v, err := d.atomValue(a, raw, raw) // sam side unused for raw atoms
			if err != nil {
				return nil, err
			}
			g.rawConst[a.key] = v
		case a.kind == atomAgg:
			col, err := resolveNumeric(raw.Table.Schema(), a.column)
			if err != nil {
				return nil, err
			}
			f, err := engine.NewAggFunc(a.aggName)
			if err != nil {
				return nil, err
			}
			g.aggAtoms = append(g.aggAtoms, a)
			g.aggStates = append(g.aggStates, f.NewState())
			g.aggVals = append(g.aggVals, raw.FloatsOf(col))
		case a.kind == atomSlope || a.kind == atomAngle:
			if g.regXs == nil {
				xCol, err := resolveNumeric(raw.Table.Schema(), d.targets[0])
				if err != nil {
					return nil, err
				}
				yCol, err := resolveNumeric(raw.Table.Schema(), d.targets[1])
				if err != nil {
					return nil, err
				}
				g.regXs, g.regYs = raw.FloatsOf(xCol), raw.FloatsOf(yCol)
			}
			g.regAtoms = append(g.regAtoms, a)
		}
	}
	return g, nil
}

func (g *dslGreedy) bindAMDGreedy(raw dataset.View) error {
	idx := raw.Table.Schema().ColumnIndex(g.d.targets[0])
	if idx < 0 {
		return fmt.Errorf("loss: unknown column %q", g.d.targets[0])
	}
	if raw.Table.Schema()[idx].Type == dataset.Point {
		pts := raw.PointsOf(idx)
		metric := g.d.metric
		g.amdDist = func(i, j int) float64 { return geo.Distance(metric, pts[i], pts[j]) }
	} else {
		vals := raw.FloatsOf(idx)
		g.amdDist = func(i, j int) float64 { return math.Abs(vals[i] - vals[j]) }
	}
	g.minDist = make([]float64, raw.Len())
	for i := range g.minDist {
		g.minDist[i] = math.Inf(1)
	}
	return nil
}

func (g *dslGreedy) Len() int { return g.n }

func (g *dslGreedy) atomValsAt(cand int) map[string]float64 {
	vals := make(map[string]float64, len(g.d.atoms))
	for k, v := range g.rawConst {
		vals[k] = v
	}
	for ai, a := range g.aggAtoms {
		st := g.aggStates[ai]
		if cand >= 0 {
			st = st.Clone()
			if a.aggName == "COUNT" {
				st.Add(dataset.IntValue(1))
			} else {
				st.Add(dataset.FloatValue(g.aggVals[ai][cand]))
			}
		}
		vals[a.key] = st.Value().Float()
	}
	if len(g.regAtoms) > 0 {
		st := g.regState
		if cand >= 0 {
			st.AddXY(g.regXs[cand], g.regYs[cand])
		}
		for _, a := range g.regAtoms {
			if a.kind == atomSlope {
				vals[a.key] = st.Slope()
			} else {
				vals[a.key] = st.Angle()
			}
		}
	}
	if g.amdAtom != nil {
		if g.n == 0 {
			vals[g.amdAtom.key] = 0
		} else if g.samN == 0 && cand < 0 {
			vals[g.amdAtom.key] = math.Inf(1)
		} else {
			var sum float64
			for j := 0; j < g.n; j++ {
				d := g.minDist[j]
				if cand >= 0 {
					if cd := g.amdDist(j, cand); cd < d {
						d = cd
					}
				}
				sum += d
			}
			vals[g.amdAtom.key] = sum / float64(g.n)
		}
	}
	return vals
}

func (g *dslGreedy) lossAt(cand int) float64 {
	v, err := g.d.evalBody(g.atomValsAt(cand))
	if err != nil {
		panic(err)
	}
	return v
}

func (g *dslGreedy) CurrentLoss() float64   { return g.lossAt(-1) }
func (g *dslGreedy) LossWith(i int) float64 { return g.lossAt(i) }

func (g *dslGreedy) Add(i int) {
	for ai, a := range g.aggAtoms {
		if a.aggName == "COUNT" {
			g.aggStates[ai].Add(dataset.IntValue(1))
		} else {
			g.aggStates[ai].Add(dataset.FloatValue(g.aggVals[ai][i]))
		}
	}
	if len(g.regAtoms) > 0 {
		g.regState.AddXY(g.regXs[i], g.regYs[i])
	}
	if g.amdAtom != nil {
		for j := 0; j < g.n; j++ {
			if d := g.amdDist(j, i); d < g.minDist[j] {
				g.minDist[j] = d
			}
		}
	}
	g.samN++
}

// MergeSafe reports whether the compiled body is exactly one AVGMINDIST
// atom — the only DSL shape with the disjoint-union guarantee.
func (d *DSL) MergeSafe() bool {
	call, ok := d.decl.Body.(*engine.Call)
	if !ok || len(d.atoms) != 1 {
		return false
	}
	return d.atoms[0].kind == atomAvgMinDist && call.String() == d.atoms[0].key
}
