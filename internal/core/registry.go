package core

import "cloudwatch/internal/obs"

// The experiment registry: one name per table and figure of the
// paper's evaluation, in the paper's order. cmd/cloudwatch and the
// streaming study server both resolve experiment names through it, so
// "valid experiment" means the same thing everywhere.

// experiment is one registry entry: its name, its renderer, and — for
// the §3.3 comparison tables whose families take a top-K width — its
// renderer at an explicit K (nil for every other experiment).
type experiment struct {
	name      string
	render    func(*Study) string
	renderAtK func(*Study, int) string
}

// experiments lists every renderable experiment in render order.
var experiments = []experiment{
	{"table1", func(s *Study) string { return s.Table1().Render() }, nil},
	{"table2", func(s *Study) string { return s.Table2().Render() },
		func(s *Study, k int) string { return s.Table2AtK(k).Render() }},
	{"table3", func(s *Study) string { return s.Table3().Render() }, nil},
	{"table4", func(s *Study) string { return s.Table4().Render() },
		func(s *Study, k int) string { return s.Table4AtK(k).Render() }},
	{"table5", func(s *Study) string { return s.Table5().Render() },
		func(s *Study, k int) string { return s.Table5AtK(k).Render() }},
	{"table6", func(s *Study) string { return s.Table6().Render() }, nil},
	{"table7", func(s *Study) string { return s.Table7().Render() },
		func(s *Study, k int) string { return s.Table7AtK(k).Render() }},
	{"table8", func(s *Study) string { return s.Table8().Render() }, nil},
	{"table9", func(s *Study) string { return s.Table9().Render() }, nil},
	{"table10", func(s *Study) string { return s.Table10().Render() },
		func(s *Study, k int) string { return s.Table10AtK(k).Render() }},
	{"table11", func(s *Study) string { return s.Table11().Render() }, nil},
	{"figure1", func(s *Study) string { return s.Figure1().Render() }, nil},
}

// lookup returns the registry entry of name.
func lookup(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// names returns the names of the entries keep accepts, in render
// order. The slice is fresh; callers may keep or modify it.
func names(keep func(experiment) bool) []string {
	var out []string
	for _, e := range experiments {
		if keep(e) {
			out = append(out, e.name)
		}
	}
	return out
}

// ExperimentNames returns the renderable experiment names in the
// paper's order.
func ExperimentNames() []string { return names(func(experiment) bool { return true }) }

// AppendixExperiments returns the table subset the "appendix" selection
// renders (Tables 12–17 are the 2020/2022 variants of these).
func AppendixExperiments() []string {
	return []string{"table2", "table5", "table7", "table10", "table4", "table11"}
}

// KnownExperiment reports whether name is a renderable experiment —
// the validity check servers run before doing any per-request work, so
// an unknown name fails the same way whatever else the request got
// wrong.
func KnownExperiment(name string) bool {
	_, ok := lookup(name)
	return ok
}

// SweepTables lists the experiments the K-sweep engine can drive —
// the §3.3 comparison tables whose families take a top-K width.
func SweepTables() []string { return names(func(e experiment) bool { return e.renderAtK != nil }) }

// RenderExperiment renders one named experiment of a study, reporting
// ok=false for unknown names. Every successful render is traced as one
// table_render stage span; unknown names record nothing.
func RenderExperiment(s *Study, name string) (string, bool) {
	e, ok := lookup(name)
	if !ok {
		return "", false
	}
	sp := obs.StartStage(obs.StageTableRender)
	out := e.render(s)
	sp.End()
	return out, true
}

// RenderExperimentAtK renders one sweepable table at an explicit top-K
// width, reporting ok=false for names outside SweepTables. K == TopK
// reuses the exact memo entries the plain tables populate. Successful
// renders trace as table_render spans, like RenderExperiment.
func RenderExperimentAtK(s *Study, name string, k int) (string, bool) {
	e, ok := lookup(name)
	if !ok || e.renderAtK == nil {
		return "", false
	}
	sp := obs.StartStage(obs.StageTableRender)
	out := e.renderAtK(s, k)
	sp.End()
	return out, true
}
