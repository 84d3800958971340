package sim

// Ticker fires a callback at a fixed virtual-time period. It models the
// paper's periodic asynchronous processes: the Gradient Model's per-PE
// "gradient process" and the load-information broadcast in CWN.
//
// The first firing happens at phase (an offset into the first period) so
// that the PEs' periodic processes are not artificially synchronized — on
// real hardware they would drift; the machine staggers phases from the
// run's seeded streams.
//
// Internally a Ticker re-arms one Timer, so steady-state ticking
// allocates nothing: construction costs two small objects (one when
// the Ticker lives in a caller-owned block; see Init), firings cost
// zero. A process with many instances of one kind can go further and
// be one self-re-arming payload event per instance, sharing one Action,
// as the machine's per-PE load broadcast is.
type Ticker struct {
	timer   Timer
	period  Time
	fn      func()
	stopped bool
	firings uint64
}

// NewTicker schedules fn every period units, first at now+phase.
// period must be positive; phase must be non-negative.
func NewTicker(eng *Engine, period, phase Time, fn func()) *Ticker {
	t := &Ticker{}
	t.Init(eng, period, phase, fn)
	return t
}

// Init readies a zero Ticker in place and schedules its first firing —
// the form of NewTicker for tickers embedded in a caller-owned block,
// which saves the Ticker's own allocation. The Ticker must not be
// copied after Init: its embedded Timer's event points back at it.
func (t *Ticker) Init(eng *Engine, period, phase Time, fn func()) {
	if period <= 0 {
		panic("sim: NewTicker with non-positive period")
	}
	if phase < 0 {
		panic("sim: NewTicker with negative phase")
	}
	t.period = period
	t.fn = fn
	t.stopped = false
	t.firings = 0
	t.timer.Init(eng, t.fire)
	t.timer.Schedule(phase)
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.firings++
	t.fn()
	if !t.stopped { // fn may have stopped us
		t.timer.Schedule(t.period)
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}

// Firings returns how many times the ticker has fired.
func (t *Ticker) Firings() uint64 { return t.firings }

// Period returns the ticker period.
func (t *Ticker) Period() Time { return t.period }
