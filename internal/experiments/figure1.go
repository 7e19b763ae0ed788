package experiments

import (
	"fmt"
	"time"

	"seuss/internal/metrics"
)

// Figure1Stage is one stage of a function invocation's lifetime
// (Figure 1 of the paper), with the measured time each path spends in
// it. A zero duration with Skipped=true is the point of the figure:
// cached stages vanish from later paths.
type Figure1Stage struct {
	Name                        string
	Cold                        time.Duration
	Warm                        time.Duration
	Hot                         time.Duration
	ColdSkip, WarmSkip, HotSkip bool
}

// Figure1 is the invocation-stage breakdown.
type Figure1 struct {
	Stages []Figure1Stage
	// BootTime is the once-per-interpreter system initialization that
	// even cold starts skip (T1 in the figure: captured in the runtime
	// snapshot).
	BootTime time.Duration
}

// RunFigure1 measures each invocation stage on each path, reproducing
// the stage-skipping structure of Figure 1: the runtime snapshot (T1)
// removes boot + interpreter initialization from every path, the
// function snapshot (T2) removes import + compile from warm starts, and
// the cached UC removes deployment and connection from hot starts.
func RunFigure1() (Figure1, error) {
	m, err := runMicro(true, true, 1)
	if err != nil {
		return Figure1{}, err
	}
	cold, warm := m.coldStages, m.warmStages
	out := Figure1{BootTime: m.boot}
	out.Stages = []Figure1Stage{
		{
			Name:     "boot unikernel + init interpreter",
			ColdSkip: true, WarmSkip: true, HotSkip: true, // in the runtime snapshot
		},
		{
			Name: "deploy UC",
			Cold: cold.deploy, Warm: warm.deploy, HotSkip: true,
		},
		{
			Name: "connect",
			Cold: cold.connect - cold.deploy, Warm: warm.connect - warm.deploy, HotSkip: true,
		},
		{
			Name: "import + compile function",
			Cold: cold.importCompile - cold.connect, WarmSkip: true, HotSkip: true, // in the fn snapshot
		},
		{
			Name: "pass arguments + execute",
			Cold: cold.execute - cold.importCompile, Warm: warm.execute - warm.importCompile, Hot: m.Hot,
		},
	}
	return out, nil
}

// Render formats the stage table.
func (f Figure1) Render() string {
	tab := metrics.Table{Header: []string{"Stage", "Cold", "Warm", "Hot"}}
	cell := func(d time.Duration, skip bool) string {
		if skip {
			return "— (cached)"
		}
		return fmt.Sprintf("%.2f ms", float64(d.Microseconds())/1000)
	}
	for _, s := range f.Stages {
		tab.AddRow(s.Name, cell(s.Cold, s.ColdSkip), cell(s.Warm, s.WarmSkip), cell(s.Hot, s.HotSkip))
	}
	return fmt.Sprintf("Figure 1: stages of a function invocation (system init before the\nruntime snapshot took %v and is paid once, never per invocation)\n\n",
		f.BootTime.Round(time.Millisecond)) + tab.String()
}
