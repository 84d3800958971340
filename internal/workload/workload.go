// Package workload generates the tree-structured computations the paper
// simulates. A computation is a tree of medium-grain tasks ("goals"): a
// task either completes immediately with a value (leaf) or spawns its
// children, waits for all their responses, combines them, and responds to
// its own parent.
//
// The paper deliberately uses computations with predictable, well
// understood structure so that simulation artifacts can be attributed to
// the load-balancing scheme rather than the program: divide-and-conquer
// dc(M,N) (a well-balanced binary tree) and naive doubly-recursive
// Fibonacci (a skewed binary tree). Both are executed for their shape —
// the simulator nevertheless computes their actual numeric result, which
// the test suite checks against sequential evaluation (ORACLE's "we get
// the result of the program" property).
package workload

import (
	"fmt"
	"math/rand"
)

// Task is one goal in a computation tree. Leaf tasks carry their value;
// inner tasks combine their children's values with the tree's Combine
// function. Work scales the PE service time of this particular task
// (1 = the configured grain time).
type Task struct {
	ID    int32
	Kids  []*Task
	Value int64 // meaningful for leaves only
	Work  int32 // service-time multiplier, >= 1
}

// IsLeaf reports whether the task has no children.
func (t *Task) IsLeaf() bool { return len(t.Kids) == 0 }

// Tree is an immutable computation. Trees are read-only after
// construction and safe to share across concurrent simulations.
type Tree struct {
	Name    string
	Root    *Task
	Combine func(vals []int64) int64

	count  int
	leaves int
	depth  int
}

// Count returns the total number of tasks — the paper's "number of goals
// generated during the computation" (the x-axis of plots 1-10).
func (tr *Tree) Count() int { return tr.count }

// Leaves returns the number of leaf tasks.
func (tr *Tree) Leaves() int { return tr.leaves }

// Depth returns the longest root-to-leaf path length in edges.
func (tr *Tree) Depth() int { return tr.depth }

// String implements fmt.Stringer.
func (tr *Tree) String() string {
	return fmt.Sprintf("%s (%d goals, depth %d)", tr.Name, tr.count, tr.depth)
}

// Walk visits every task in preorder.
func (tr *Tree) Walk(fn func(*Task)) {
	stack := []*Task{tr.Root}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fn(t)
		for i := len(t.Kids) - 1; i >= 0; i-- {
			stack = append(stack, t.Kids[i])
		}
	}
}

// Eval computes the tree's value sequentially (what a single PE would
// produce). It is iterative so that degenerate chain-shaped trees do not
// overflow the stack.
func (tr *Tree) Eval() int64 {
	type frame struct {
		task *Task
		next int
		vals []int64
	}
	stack := []frame{{task: tr.Root}}
	var result int64
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.task.IsLeaf() {
			result = f.task.Value
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				p.vals = append(p.vals, result)
			}
			continue
		}
		if f.next < len(f.task.Kids) {
			child := f.task.Kids[f.next]
			f.next++
			stack = append(stack, frame{task: child})
			continue
		}
		result = tr.Combine(f.vals)
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			p.vals = append(p.vals, result)
		}
	}
	return result
}

// TotalWork returns the sum of Work multipliers over all tasks.
func (tr *Tree) TotalWork() int64 {
	var total int64
	tr.Walk(func(t *Task) { total += int64(t.Work) })
	return total
}

// finalize assigns preorder IDs and computes the cached statistics.
func finalize(tr *Tree) *Tree {
	var id int32
	type frame struct {
		t *Task
		d int
	}
	stack := []frame{{tr.Root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f.t.ID = id
		id++
		tr.count++
		if f.d > tr.depth {
			tr.depth = f.d
		}
		if f.t.IsLeaf() {
			tr.leaves++
		}
		if f.t.Work < 1 {
			f.t.Work = 1
		}
		for i := len(f.t.Kids) - 1; i >= 0; i-- {
			stack = append(stack, frame{f.t.Kids[i], f.d + 1})
		}
	}
	return tr
}

func sum(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	return s
}

// NewFib returns the naive doubly-recursive Fibonacci computation:
//
//	fib(M) <- if M < 2 then M else fib(M-1) + fib(M-2)
//
// It yields a not-so-well-balanced binary tree with 2·F(M+1)−1 goals.
// The paper uses M in {7, 9, 11, 13, 15, 18}.
func NewFib(m int) *Tree {
	if m < 0 || m > 40 {
		panic("workload: fib argument out of range [0,40]")
	}
	var gen func(k int) *Task
	gen = func(k int) *Task {
		if k < 2 {
			return &Task{Value: int64(k), Work: 1}
		}
		return &Task{Kids: []*Task{gen(k - 1), gen(k - 2)}, Work: 1}
	}
	return finalize(&Tree{
		Name:    fmt.Sprintf("fib(%d)", m),
		Root:    gen(m),
		Combine: sum,
	})
}

// NewDC returns the divide-and-conquer computation used by Lin:
//
//	dc(M,N) <- if M = N then M else dc(M,(M+N)/2) + dc(1+(M+N)/2, N)
//
// It yields a well-balanced binary tree with 2·(N−M+1)−1 goals and value
// M+(M+1)+…+N. The paper uses dc(1,X) for X in {21, 55, 144, 377, 987,
// 4181} (Fibonacci numbers, matching the fib sizes goal-for-goal).
func NewDC(m, n int) *Tree {
	if m > n {
		panic("workload: dc requires M <= N")
	}
	// The unsigned difference is exact once m <= n.
	if uint(n)-uint(m) > 1<<22 {
		panic("workload: dc range too large")
	}
	var gen func(lo, hi int) *Task
	gen = func(lo, hi int) *Task {
		if lo == hi {
			return &Task{Value: int64(lo), Work: 1}
		}
		// (lo+hi)/2 for a non-negative range. Written this way it
		// rounds toward lo on a negative range too, so mid < hi and the
		// recursion ends; (lo+hi)/2 rounds -1..0 up to 0 and recurses on
		// it forever.
		mid := lo + (hi-lo)/2
		return &Task{Kids: []*Task{gen(lo, mid), gen(mid+1, hi)}, Work: 1}
	}
	return finalize(&Tree{
		Name:    fmt.Sprintf("dc(%d,%d)", m, n),
		Root:    gen(m, n),
		Combine: sum,
	})
}

// NewFullBinary returns a perfectly balanced binary tree of the given
// depth whose leaves all carry value 1, so the root value is 2^depth.
func NewFullBinary(depth int) *Tree {
	if depth < 0 || depth > 24 {
		panic("workload: full binary depth out of range [0,24]")
	}
	var gen func(d int) *Task
	gen = func(d int) *Task {
		if d == 0 {
			return &Task{Value: 1, Work: 1}
		}
		return &Task{Kids: []*Task{gen(d - 1), gen(d - 1)}, Work: 1}
	}
	return finalize(&Tree{
		Name:    fmt.Sprintf("bin(%d)", depth),
		Root:    gen(depth),
		Combine: sum,
	})
}

// NewSkewed returns a maximally unbalanced ("caterpillar") binary tree
// with n inner nodes: each inner node has one leaf child and one inner
// child. Its depth equals n, so available parallelism is minimal — a
// stress case for any distribution scheme.
func NewSkewed(n int) *Tree {
	if n < 1 || n > 1<<20 {
		panic("workload: skewed size out of range")
	}
	// Build bottom-up to avoid deep recursion.
	node := &Task{Value: 1, Work: 1}
	for i := 0; i < n; i++ {
		node = &Task{Kids: []*Task{{Value: 1, Work: 1}, node}, Work: 1}
	}
	return finalize(&Tree{
		Name:    fmt.Sprintf("skew(%d)", n),
		Root:    node,
		Combine: sum,
	})
}

// NewChain returns a unary chain of n tasks ending in a single leaf —
// a computation with zero parallelism. Any load balancer should yield
// speedup <= 1 on it.
func NewChain(n int) *Tree {
	if n < 1 || n > 1<<20 {
		panic("workload: chain size out of range")
	}
	node := &Task{Value: 7, Work: 1}
	for i := 1; i < n; i++ {
		node = &Task{Kids: []*Task{node}, Work: 1}
	}
	return finalize(&Tree{
		Name:    fmt.Sprintf("chain(%d)", n),
		Root:    node,
		Combine: func(vals []int64) int64 { return vals[0] },
	})
}

// NewImbalanced returns a binary tree with exactly the given number of
// goals whose subtree weights split leftFrac : 1-leftFrac at every
// inner node — a dial between NewDC's perfect balance (0.5) and
// NewSkewed's caterpillar (→ 1.0). Leaves carry value 1.
func NewImbalanced(goals int, leftFrac float64) *Tree {
	if goals < 1 {
		panic("workload: imbalanced tree needs at least 1 goal")
	}
	if leftFrac <= 0 || leftFrac >= 1 {
		panic("workload: leftFrac must be in (0,1)")
	}
	var gen func(budget int) *Task
	gen = func(budget int) *Task {
		if budget <= 1 {
			return &Task{Value: 1, Work: 1}
		}
		rest := budget - 1 // this node
		left := int(float64(rest) * leftFrac)
		if left < 1 {
			left = 1
		}
		if left >= rest {
			left = rest - 1
		}
		if left < 1 {
			// rest == 1: single child keeps the count exact.
			return &Task{Kids: []*Task{gen(rest)}, Work: 1}
		}
		return &Task{Kids: []*Task{gen(left), gen(rest - left)}, Work: 1}
	}
	return finalize(&Tree{
		Name:    fmt.Sprintf("imbal(%d,%.2f)", goals, leftFrac),
		Root:    gen(goals),
		Combine: sum,
	})
}

// RandomConfig parameterizes NewRandom.
type RandomConfig struct {
	Seed      int64
	Goals     int // approximate total task count (>= 1)
	MaxKids   int // maximum children per inner task (>= 2)
	MaxWork   int // task Work drawn uniformly from [1, MaxWork]
	LeafValue int64
}

// NewRandom returns a random tree with roughly cfg.Goals tasks: an
// irregular computation whose parallelism waxes and wanes, approximating
// the paper's "in real life computations, the parallelism may rise and
// fall in cycles".
func NewRandom(cfg RandomConfig) *Tree {
	if cfg.Goals < 1 {
		panic("workload: random tree needs at least 1 goal")
	}
	if cfg.MaxKids < 2 {
		cfg.MaxKids = 2
	}
	if cfg.MaxWork < 1 {
		cfg.MaxWork = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	budget := cfg.Goals - 1
	root := &Task{Work: int32(1 + rng.Intn(cfg.MaxWork))}
	frontier := []*Task{root}
	for budget > 0 && len(frontier) > 0 {
		// Expand a random frontier node.
		i := rng.Intn(len(frontier))
		node := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		kids := 2 + rng.Intn(cfg.MaxKids-1)
		if kids > budget {
			kids = budget
		}
		if kids == 0 {
			break
		}
		for k := 0; k < kids; k++ {
			child := &Task{Work: int32(1 + rng.Intn(cfg.MaxWork))}
			node.Kids = append(node.Kids, child)
			// Half the children become leaves immediately; the rest may
			// expand further.
			if rng.Intn(2) == 0 {
				frontier = append(frontier, child)
			}
		}
		budget -= kids
	}
	// Terminal nodes become leaves with the configured value.
	var fix func(tr *Task)
	fix = func(tr *Task) {
		if len(tr.Kids) == 0 {
			tr.Value = cfg.LeafValue
			return
		}
		for _, k := range tr.Kids {
			fix(k)
		}
	}
	fix(root)
	return finalize(&Tree{
		Name:    fmt.Sprintf("random(%d,seed=%d)", cfg.Goals, cfg.Seed),
		Root:    root,
		Combine: sum,
	})
}

// FibValue returns fib(n) computed iteratively (the expected simulation
// result for NewFib(n)).
func FibValue(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// FibGoalCount returns the number of goals in NewFib(n): 2·F(n+1) − 1.
func FibGoalCount(n int) int {
	return int(2*FibValue(n+1) - 1)
}

// DCSum returns the expected result of dc(m,n): the sum m+(m+1)+…+n.
func DCSum(m, n int) int64 {
	lo, hi := int64(m), int64(n)
	return (hi*(hi+1) - lo*(lo-1)) / 2
}

// DCGoalCount returns the number of goals in NewDC(m,n): 2·(n−m+1) − 1.
func DCGoalCount(m, n int) int {
	return 2*(n-m+1) - 1
}

// PaperFibSizes are the six Fibonacci problem sizes used in the paper.
var PaperFibSizes = []int{7, 9, 11, 13, 15, 18}

// PaperDCSizes are the six dc(1,X) upper bounds used in the paper.
var PaperDCSizes = []int{21, 55, 144, 377, 987, 4181}
