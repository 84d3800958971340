package trace

import (
	"fmt"
	"io"
	"slices"

	"cwnsim/internal/metrics"
	"cwnsim/internal/report"
	"cwnsim/internal/sim"
)

// Frame is one sampling instant of the load monitor: every PE's
// utilization over the window that just ended.
type Frame struct {
	At   sim.Time
	Util []float64 // per PE, in [0,1]
}

// Monitor accumulates per-PE utilization frames — the data ORACLE
// shipped to its color graphics display. The machine appends a frame
// every sample interval when monitoring is enabled. Frames dominate a
// monitored run's sample memory (one float64 per PE per frame), so
// Bound caps them the same way metrics.Series.Bound caps a series.
type Monitor struct {
	Frames []Frame

	thin metrics.Thinning[Frame]
}

// Bound caps the monitor at limit retained frames; see
// metrics.Thinning.Bound. A retained frame is exact; only the
// flip-book's frame rate halves per doubling.
func (m *Monitor) Bound(limit int) { m.Frames = m.thin.Bound(m.Frames, limit) }

// Bounded reports whether frames have been dropped to stay under the
// bound.
func (m *Monitor) Bounded() bool { return m.thin.Bounded() }

// Append adds a frame (the utilization slice is copied; past a bound,
// only every stride-th frame is kept).
func (m *Monitor) Append(at sim.Time, util []float64) {
	if m.thin.Keep() {
		m.Frames = m.thin.Push(m.Frames, Frame{At: at, Util: slices.Clone(util)})
	}
}

// Len returns the number of frames.
func (m *Monitor) Len() int { return len(m.Frames) }

// ActivePEs returns how many PEs were busy at all in frame i.
func (m *Monitor) ActivePEs(i int) int {
	n := 0
	for _, u := range m.Frames[i].Util {
		if u > 0 {
			n++
		}
	}
	return n
}

// Render writes a selection of frames as heat maps laid out on a
// rows×cols PE grid: a flip-book of the load spreading across the
// machine ("red: busy, blue: idle" in ASCII shades). every selects the
// stride between rendered frames (1 = all).
func (m *Monitor) Render(w io.Writer, rows, cols, every int) {
	if every < 1 {
		every = 1
	}
	for i := 0; i < len(m.Frames); i += every {
		f := m.Frames[i]
		hm := report.NewHeatmap(fmt.Sprintf("t=%d  (%d/%d PEs active)", f.At, m.ActivePEs(i), len(f.Util)), rows, cols)
		copy(hm.Values, f.Util)
		hm.Render(w)
	}
}

// WriteCSV emits the frames in ORACLE's machine-readable monitor format:
// one row per frame, first column the time, then one utilization column
// per PE — suitable for driving an external plotting program.
func (m *Monitor) WriteCSV(w io.Writer) error {
	for _, f := range m.Frames {
		if _, err := fmt.Fprintf(w, "%d", f.At); err != nil {
			return err
		}
		for _, u := range f.Util {
			if _, err := fmt.Fprintf(w, ",%.4f", u); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
