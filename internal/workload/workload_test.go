package workload

import (
	"testing"
	"testing/quick"
)

func TestFibValues(t *testing.T) {
	want := []int64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	for n, w := range want {
		if got := FibValue(n); got != w {
			t.Errorf("FibValue(%d) = %d, want %d", n, got, w)
		}
	}
	if got := FibValue(18); got != 2584 {
		t.Errorf("FibValue(18) = %d, want 2584", got)
	}
}

func TestFibTreeMatchesClosedForms(t *testing.T) {
	for _, m := range append([]int{0, 1, 2, 3}, PaperFibSizes...) {
		tr := NewFib(m)
		if got, want := tr.Count(), FibGoalCount(m); got != want {
			t.Errorf("fib(%d) count = %d, want %d", m, got, want)
		}
		if got, want := tr.Eval(), FibValue(m); got != want {
			t.Errorf("fib(%d) eval = %d, want %d", m, got, want)
		}
	}
}

func TestDCTreeMatchesClosedForms(t *testing.T) {
	for _, x := range append([]int{1, 2, 3}, PaperDCSizes...) {
		tr := NewDC(1, x)
		if got, want := tr.Count(), DCGoalCount(1, x); got != want {
			t.Errorf("dc(1,%d) count = %d, want %d", x, got, want)
		}
		if got, want := tr.Eval(), DCSum(1, x); got != want {
			t.Errorf("dc(1,%d) eval = %d, want %d", x, got, want)
		}
	}
	// Non-unit and negative lower bounds.
	for _, r := range [][2]int{{5, 17}, {-1, 0}, {-5, 17}, {-17, -5}, {-3, -3}} {
		tr := NewDC(r[0], r[1])
		if got, want := tr.Count(), DCGoalCount(r[0], r[1]); got != want {
			t.Errorf("dc(%d,%d) count = %d, want %d", r[0], r[1], got, want)
		}
		if got, want := tr.Eval(), DCSum(r[0], r[1]); got != want {
			t.Errorf("dc(%d,%d) eval = %d, want %d", r[0], r[1], got, want)
		}
	}
}

func TestPaperSizesAlign(t *testing.T) {
	// The paper chose dc sizes to be Fibonacci numbers so both programs
	// generate identical goal counts: 41, 109, 287, 753, 1973, 8361.
	wantGoals := []int{41, 109, 287, 753, 1973, 8361}
	for i := range PaperFibSizes {
		fibGoals := NewFib(PaperFibSizes[i]).Count()
		dcGoals := NewDC(1, PaperDCSizes[i]).Count()
		if fibGoals != dcGoals {
			t.Errorf("size %d: fib goals %d != dc goals %d", i, fibGoals, dcGoals)
		}
		if fibGoals != wantGoals[i] {
			t.Errorf("size %d: goals = %d, want %d", i, fibGoals, wantGoals[i])
		}
	}
}

func TestFullBinary(t *testing.T) {
	tr := NewFullBinary(5)
	if tr.Count() != 63 {
		t.Errorf("count = %d, want 63", tr.Count())
	}
	if tr.Leaves() != 32 {
		t.Errorf("leaves = %d, want 32", tr.Leaves())
	}
	if tr.Depth() != 5 {
		t.Errorf("depth = %d, want 5", tr.Depth())
	}
	if tr.Eval() != 32 {
		t.Errorf("eval = %d, want 32", tr.Eval())
	}
}

func TestSkewed(t *testing.T) {
	tr := NewSkewed(10)
	if tr.Depth() != 10 {
		t.Errorf("depth = %d, want 10", tr.Depth())
	}
	if tr.Count() != 21 { // 10 inner + 10 leaf siblings + terminal leaf
		t.Errorf("count = %d, want 21", tr.Count())
	}
	if tr.Eval() != 11 {
		t.Errorf("eval = %d, want 11", tr.Eval())
	}
}

func TestChain(t *testing.T) {
	tr := NewChain(1000)
	if tr.Count() != 1000 {
		t.Errorf("count = %d, want 1000", tr.Count())
	}
	if tr.Depth() != 999 {
		t.Errorf("depth = %d, want 999", tr.Depth())
	}
	if tr.Eval() != 7 {
		t.Errorf("eval = %d, want 7 (chain passes value through)", tr.Eval())
	}
}

func TestDeepChainEvalNoOverflow(t *testing.T) {
	tr := NewChain(200000)
	if tr.Eval() != 7 {
		t.Fatal("deep chain eval wrong")
	}
	if tr.TotalWork() != 200000 {
		t.Fatalf("TotalWork = %d, want 200000", tr.TotalWork())
	}
}

func TestRandomTree(t *testing.T) {
	cfg := RandomConfig{Seed: 5, Goals: 500, MaxKids: 4, MaxWork: 3, LeafValue: 1}
	tr := NewRandom(cfg)
	if tr.Count() < 100 || tr.Count() > 600 {
		t.Errorf("random tree count = %d, want roughly 500", tr.Count())
	}
	// Value = number of leaves when LeafValue is 1 and combine is sum.
	if tr.Eval() != int64(tr.Leaves()) {
		t.Errorf("eval = %d, want leaves = %d", tr.Eval(), tr.Leaves())
	}
	// Determinism.
	tr2 := NewRandom(cfg)
	if tr2.Count() != tr.Count() || tr2.Eval() != tr.Eval() {
		t.Error("random tree with same seed differs")
	}
}

func TestWalkVisitsAllExactlyOnce(t *testing.T) {
	tr := NewFib(10)
	seen := make(map[int32]int)
	tr.Walk(func(task *Task) { seen[task.ID]++ })
	if len(seen) != tr.Count() {
		t.Fatalf("walk visited %d distinct tasks, want %d", len(seen), tr.Count())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d visited %d times", id, n)
		}
	}
	// IDs are 0..Count-1 (preorder).
	for i := 0; i < tr.Count(); i++ {
		if seen[int32(i)] != 1 {
			t.Fatalf("task ID %d missing", i)
		}
	}
}

func TestQuickFibCountRecurrence(t *testing.T) {
	// goals(n) = 1 + goals(n-1) + goals(n-2) for n >= 2.
	f := func(raw uint8) bool {
		n := int(raw%14) + 2
		return FibGoalCount(n) == 1+FibGoalCount(n-1)+FibGoalCount(n-2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDCEvalAnyRange(t *testing.T) {
	f := func(a, span uint8) bool {
		m := int(a)
		n := m + int(span%64)
		tr := NewDC(m, n)
		return tr.Eval() == DCSum(m, n) && tr.Count() == DCGoalCount(m, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewFib(-1) },
		func() { NewFib(41) },
		func() { NewDC(5, 4) },
		func() { NewFullBinary(-1) },
		func() { NewSkewed(0) },
		func() { NewChain(0) },
		func() { NewRandom(RandomConfig{Goals: 0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestStringer(t *testing.T) {
	if NewFib(7).String() == "" {
		t.Fatal("empty String")
	}
}

func BenchmarkNewFib18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = NewFib(18)
	}
}

func BenchmarkEvalFib18(b *testing.B) {
	tr := NewFib(18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Eval()
	}
}
