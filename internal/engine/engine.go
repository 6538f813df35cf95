package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"decomine/internal/ast"
	"decomine/internal/graph"
	"decomine/internal/obs"
)

// Engine-level feeds into the shared metrics registry. Every counter is
// updated once per run (or once per worker per run), never on the
// per-instruction hot path.
var (
	obsRuns        = obs.Default.Counter("engine.runs")
	obsInstr       = obs.Default.Counter("engine.instructions")
	obsSteals      = obs.Default.Counter("engine.steals")
	obsSplits      = obs.Default.Counter("engine.splits")
	obsExecNS      = obs.Default.Counter("engine.exec_ns")
	obsCanceled    = obs.Default.Counter("engine.canceled")
	obsWorkerInstr = obs.Default.Histogram("engine.worker.instructions")
	obsWorkerSteal = obs.Default.Histogram("engine.worker.steals")
	obsWorkerSplit = obs.Default.Histogram("engine.worker.splits")
)

// execSpan tracks the union of wall-clock intervals during which at
// least one Run is executing. Summing every run's own Elapsed would
// double-count overlapped time once runs execute concurrently (the
// batch layer schedules independent subqueries on one shared pool), so
// "engine.exec_ns" advances only while the active-run count is nonzero:
// the first run in stamps the span start, the last run out adds the
// span's length. For strictly sequential runs this is identical to
// summing Elapsed.
var execSpan struct {
	mu     sync.Mutex
	active int
	start  time.Time
}

func execSpanEnter() {
	execSpan.mu.Lock()
	if execSpan.active == 0 {
		execSpan.start = time.Now()
	}
	execSpan.active++
	execSpan.mu.Unlock()
}

func execSpanExit() {
	execSpan.mu.Lock()
	execSpan.active--
	if execSpan.active == 0 {
		obsExecNS.Add(time.Since(execSpan.start).Nanoseconds())
	}
	execSpan.mu.Unlock()
}

// obsKernels[k] accumulates kernel-path dispatch counts
// ("engine.kernel.<name>") across runs, one Add per run.
var obsKernels = func() [NumKernels]*obs.Counter {
	var cs [NumKernels]*obs.Counter
	for k, name := range KernelNames {
		cs[k] = obs.Default.Counter("engine.kernel." + name)
	}
	return cs
}()

// obsKernelElems[k] accumulates kernel-path element work
// ("engine.kernel_elems.<name>"): the schedule-invariant per-path work
// measures from Result.KernelElems. The bench suite's aux comparison
// reads these to compute a deterministic work ratio.
var obsKernelElems = func() [NumKernels]*obs.Counter {
	var cs [NumKernels]*obs.Counter
	for k, name := range KernelNames {
		cs[k] = obs.Default.Counter("engine.kernel_elems." + name)
	}
	return cs
}()

// workerInstrCounter returns the per-slot instruction counter
// "engine.worker.instructions.<t>". Slot handles are cached so the
// per-run cost is one mutex-protected slice read.
var (
	slotMu   sync.Mutex
	slotCtrs []*obs.Counter
)

func workerInstrCounter(t int) *obs.Counter {
	slotMu.Lock()
	defer slotMu.Unlock()
	for len(slotCtrs) <= t {
		slotCtrs = append(slotCtrs, obs.Default.Counter(fmt.Sprintf("engine.worker.instructions.%d", len(slotCtrs))))
	}
	return slotCtrs[t]
}

// Consumer receives partial embeddings from KEmit nodes. One Consumer is
// created per worker (see Options.NewConsumer) so implementations need no
// internal locking; verts aliases an engine scratch buffer and must be
// copied if retained. Returning false stops the whole run early (used by
// bounded materialization).
type Consumer interface {
	Process(sub int, verts []uint32, count int64) bool
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(sub int, verts []uint32, count int64) bool

// Process implements Consumer.
func (f ConsumerFunc) Process(sub int, verts []uint32, count int64) bool {
	return f(sub, verts, count)
}

// Options configures a run.
type Options struct {
	// Threads is the number of workers; 0 means GOMAXPROCS. When Pool is
	// set (and Threads != 1) the pool's size wins.
	Threads int
	// NewConsumer creates one Consumer per worker. Nil when the program
	// has no KEmit nodes. It is always invoked from the submitting
	// goroutine (never concurrently), once per worker slot.
	NewConsumer func(worker int) Consumer
	// Pins preloads vertex variables [0, len(Pins)); required when the
	// program was built with pinned variables.
	Pins []uint32
	// Cancel, when non-nil and set, aborts the run; cancellation is
	// observed at steal points, outer-loop chunk boundaries, and inside
	// the dispatch loop every cancelCheckInterval instructions, so even
	// one huge iteration cannot overrun a budget by much. The Result
	// reports Canceled=true.
	Cancel *atomic.Bool
	// Code optionally supplies a pre-lowered bytecode program for prog
	// (e.g. a cached Plan.Lowered()), skipping the lowering pass. It is
	// ignored when it was lowered from a different Program.
	Code *ast.Lowered
	// Pool, when non-nil, executes the run on a persistent worker pool
	// shared across runs (and across concurrently submitting
	// goroutines) instead of starting a pool for this run alone.
	// Ignored when Threads == 1.
	Pool *Pool
	// Prepared optionally supplies reusable per-program state (arena
	// plan, split analysis, recycled frames) built by Prepare. Ignored
	// when it does not match the graph and bytecode of this run.
	Prepared *Prepared
	// Profile arms the in-VM sampling profiler for this run:
	// Result.Profile then carries the wall-time attribution by
	// (opcode × loop depth × kernel path), and the run is folded into
	// obs.GlobalProfile. Off by default — profiling adds a clock read per
	// sampling window; it never changes results or instruction counts.
	Profile bool
	// Progress, when non-nil, receives this run's root-range completion
	// accounting; Progress.Fraction may be polled concurrently.
	Progress *ProgressTracker
	// Fuel, when non-nil, is a shared instruction budget for this run.
	// Each worker debits cancelCheckInterval instructions at
	// its fuel-check window; once the counter goes negative the run
	// aborts through the cancellation plumbing and the Result reports
	// Canceled=true. The overshoot is therefore bounded by roughly
	// cancelCheckInterval × workers instructions. Several runs may share
	// one counter to enforce a joint budget.
	Fuel *atomic.Int64
}

// Result carries the merged global accumulators and execution metadata.
type Result struct {
	Globals []int64
	// WorkPerThread reports the bytecode instructions each worker
	// executed. The scalability experiment uses max/mean of this slice
	// as its load-balance signal.
	WorkPerThread []int64
	// Canceled reports that Options.Cancel aborted the run; Globals are
	// then partial.
	Canceled bool
	// OpCounts[op] counts executed bytecode instructions per ast.OpCode,
	// merged across workers.
	OpCounts []int64
	// KernelCounts[k] counts intersect/subtract dispatches per
	// kernel path (see KernelMerge..KernelBitmapCount and KernelNames),
	// merged across workers and independent of the steal schedule.
	KernelCounts []int64
	// KernelElems[k] counts the elements processed by kernel path k
	// (merge: both operand lengths, gallop: probes × search depth,
	// bitmap: probed array length, bitmap-count: bitmap words), merged
	// across workers and schedule-invariant like KernelCounts.
	KernelElems []int64
	// Profile is the run's sampling profile; nil unless Options.Profile
	// was set.
	Profile *obs.Profile
	// Steals counts loop ranges taken from another worker's deque, and
	// Splits counts depth-1 subranges shed as stealable tasks by
	// workers executing heavy outer iterations. Both are zero for runs
	// that stayed on the submitting goroutine (Threads == 1, or no
	// top-level loop with at least two iterations).
	Steals int64
	Splits int64
	// Elapsed is the wall-clock duration of this run.
	Elapsed time.Duration
}

// InstructionsExecuted sums OpCounts: the bytecode instructions the run
// executed across all workers.
func (r *Result) InstructionsExecuted() int64 {
	var total int64
	for _, c := range r.OpCounts {
		total += c
	}
	return total
}

// Run executes a program against g and returns the merged globals. The
// submitting goroutine's master frame executes root-level statements
// and, when Threads == 1 or a loop has fewer than two iterations, the
// loop itself; every other top-level loop is one job on the
// work-stealing pool.
func Run(g *graph.Graph, prog *ast.Program, opts Options) (*Result, error) {
	runStart := time.Now()
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Pins) != prog.NumPinned {
		return nil, fmt.Errorf("engine: %d pins for %d pinned vars", len(opts.Pins), prog.NumPinned)
	}
	execSpanEnter()
	defer execSpanExit()
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	var pool *Pool
	if threads > 1 {
		if opts.Pool != nil {
			pool = opts.Pool
			threads = pool.size
		} else {
			// Correctness fallback for callers that did not wire a
			// persistent pool; pays goroutine spawn per run.
			pool = NewPool(threads)
			defer pool.Close()
		}
	}
	needsConsumer := false
	ast.Walk(prog.Root, func(n *ast.Node) {
		if n.Kind == ast.KEmit {
			needsConsumer = true
		}
	})
	if needsConsumer && opts.NewConsumer == nil {
		return nil, fmt.Errorf("engine: program emits partial embeddings but no consumer factory given")
	}

	var sh *vmShared
	if opts.Prepared.matches(g, prog) {
		sh = opts.Prepared.sh
	} else {
		bc := opts.Code
		if bc == nil || bc.Prog != prog {
			bc = ast.Lower(prog)
		}
		sh = newVMShared(g, bc)
	}
	master := sh.getFrame()
	if opts.Profile {
		master.prof = &profAgg{}
	}
	master.progress = opts.Progress
	master.fuelBudget = opts.Fuel
	master.cancel = opts.Cancel
	copy(master.vars, opts.Pins)
	numTop := len(sh.bc.Segments)
	if opts.Progress != nil {
		opts.Progress.setTotal(numTop)
	}
	res := &Result{
		Globals:       make([]int64, prog.NumGlobals),
		WorkPerThread: make([]int64, threads),
	}

	// One consumer per worker index, shared across top-level loops so
	// stateful consumers (FSM domains) see the whole run. Consumers are
	// only ever created here, on the submitting goroutine.
	consumers := make([]Consumer, threads)
	getConsumer := func(t int) Consumer {
		if consumers[t] == nil && opts.NewConsumer != nil {
			consumers[t] = opts.NewConsumer(t)
		}
		return consumers[t]
	}
	master.consumer = getConsumer(0)

	stopped := false
	// mergedInstr tracks worker instructions already folded into the
	// master's op counters, so the master's own share can be attributed
	// to worker slot 0 at the end.
	var mergedInstr int64
	// inline runs master-frame work on this goroutine. A panic there (a
	// UDF at Threads 1, say) fails the run as one on a pool worker does.
	var panicErr error
	inline := func(exec func() bool) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				panicErr, ok = panicError(r), false
			}
		}()
		return exec()
	}
	for i := 0; i < numTop && !stopped; i++ {
		over, isLoop := master.topLoop(i)
		if !isLoop {
			// Root-level statements (defs, and emissions of fully pinned
			// programs) run on the master frame; a consumer may stop the
			// run here too.
			if !inline(func() bool { return master.execTop(i) }) {
				stopped = true
				res.Canceled = master.cancelHit
			} else if opts.Progress != nil {
				opts.Progress.add(segUnits)
			}
			continue
		}
		if threads == 1 || len(over) < 2 {
			// In-line degenerate case (also used by bounded
			// materialization), chunked so cancellation is observed even
			// between the VM's amortized in-flight polls.
			const seqChunk = 64
			for start := 0; start < len(over); start += seqChunk {
				if opts.Cancel != nil && opts.Cancel.Load() {
					res.Canceled = true
					stopped = true
					break
				}
				end := start + seqChunk
				if end > len(over) {
					end = len(over)
				}
				if !inline(func() bool { return master.execChunk(i, over[start:end]) }) {
					stopped = true
					res.Canceled = master.cancelHit
					break
				}
				if opts.Progress != nil {
					opts.Progress.add(segSpan(len(over), start, end))
				}
			}
			continue
		}
		// Work-stealing driver: the whole outer range is submitted as one
		// task; idle workers steal half of a victim's remainder, and
		// heavy outer iterations shed depth-1 subranges (§7.4).
		j := newJob(master, i, over, opts.Cancel, pool.size, getConsumer)
		pool.runJob(j)
		if j.stop.Load() == stopPanic {
			// The panicking frame stopped mid-instruction: drop every
			// frame of the run rather than recycle one of them.
			return nil, j.panicErr
		}
		res.Steals += j.steals.Load()
		res.Splits += j.splits.Load()
		// Privatized accumulators: merge per-worker globals under no
		// contention (associative + commutative updates, §7.1).
		for t, wf := range j.frames {
			obsWorkerSteal.Observe(j.stealsBy[t].Load())
			obsWorkerSplit.Observe(j.splitsBy[t].Load())
			wc := wf.instrCount()
			res.WorkPerThread[t] += wc
			mergedInstr += wc
			master.mergeFrom(wf)
			sh.putFrame(wf)
		}
		switch j.stop.Load() {
		case stopConsumer:
			stopped = true
		case stopCanceled:
			stopped = true
			res.Canceled = true
		}
	}
	if panicErr != nil {
		// The master frame stopped mid-instruction: drop it rather than
		// recycle it.
		return nil, panicErr
	}
	// Whatever the master executed itself (root statements, the in-line
	// path) is worker 0's share.
	res.WorkPerThread[0] += master.instrCount() - mergedInstr
	master.finish(res)
	sh.putFrame(master)
	res.Elapsed = time.Since(runStart)
	if opts.Progress != nil && !res.Canceled {
		opts.Progress.markDone()
	}

	obsRuns.Inc()
	obsSteals.Add(res.Steals)
	obsSplits.Add(res.Splits)
	if res.Canceled {
		obsCanceled.Inc()
	}
	obsInstr.Add(res.InstructionsExecuted())
	for k, c := range res.KernelCounts {
		if c != 0 {
			obsKernels[k].Add(c)
		}
	}
	for k, c := range res.KernelElems {
		if c != 0 {
			obsKernelElems[k].Add(c)
		}
	}
	for t, w := range res.WorkPerThread {
		obsWorkerInstr.Observe(w)
		workerInstrCounter(t).Add(w)
	}
	if res.Profile != nil {
		obs.AccumulateProfile(res.Profile)
		obsProfNS.Add(res.Profile.TotalNS)
		obsProfSamples.Add(res.Profile.Samples)
	}
	return res, nil
}
