package engine

// The persistent work-stealing scheduler. A Pool owns a
// fixed set of worker goroutines, each with a deque of tasks; a task is
// a contiguous range of loop iterations — of a top-level loop, or of
// one outer iteration's depth-1 candidate set. Owners carve small
// pieces off the newest task in their own deque (LIFO, cache-friendly),
// thieves take half of the oldest task's remaining range from a victim
// (FIFO, largest-granularity first). Workers executing a heavy outer
// iteration additionally shed depth-1 subranges when somebody is idle
// (vmFrame.execD1), so straggler time is bounded by the deepest single
// iteration rather than the hottest vertex — the paper's fine-grained
// work stealing (§7.4).
//
// First-cut concurrency model: one pool-wide mutex guards every deque
// and the inject queue. The lock is taken once per carved piece (tens
// of outer iterations) and once per steal, so contention stays far off
// the mining hot path; hot-path idleness checks use the lock-free
// waiting counter.

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"decomine/internal/ast"
	"decomine/internal/graph"
	"decomine/internal/obs"
)

// Prepared bundles reusable per-program execution state — the arena
// capacity plan, the depth-1 split analysis, and a recycle pool of
// worker register files — so repeated runs of the same plan against the
// same graph allocate nothing. Safe for concurrent use.
type Prepared struct {
	sh *vmShared
}

// Prepare builds reusable execution state for code against g, wired to
// the graph's current hub bitmap index (if any).
func Prepare(g *graph.Graph, code *ast.Lowered) *Prepared {
	return &Prepared{sh: newVMShared(g, code)}
}

// matches reports whether this Prepared (possibly nil) was built for
// exactly this graph, program and hub index. A Prepared wired to a
// stale hub index (the graph was re-indexed after Prepare) does not
// match, so the run falls back to building fresh shared state.
func (p *Prepared) matches(g *graph.Graph, prog *ast.Program) bool {
	return p != nil && p.sh.g == g && p.sh.bc.Prog == prog && p.sh.hub == g.HubIndex()
}

// task is a stealable range [lo, hi) of loop iterations belonging to
// job j: indices into j.over for an outer task, or indices into the
// depth-1 candidate set of outer element v when depth1 is set. Range
// bounds are mutated only under the pool mutex.
type task struct {
	j      *job
	seg    int
	v      uint32 // outer binding (depth-1 tasks only)
	lo, hi int
	depth1 bool
	// elemUnits is the outer element's progress budget (depth-1 tasks
	// only): the executor accounts the range's proportional share.
	elemUnits int64
}

// piece is one execution quantum carved from a task.
type piece struct {
	t      *task
	lo, hi int
}

// job stop states.
const (
	stopRun      = 0 // still running
	stopConsumer = 1 // a consumer returned false
	stopCanceled = 2 // Options.Cancel fired
	stopPanic    = 3 // a worker panicked; job.panicErr holds the value
)

// ErrWorkerPanic is wrapped by the error Run returns when code it ran —
// a consumer, typically a user-defined function — panicked, on a pool
// worker or in line on the calling goroutine. The worker survives for
// later jobs; the frame that was executing is discarded, never
// recycled.
var ErrWorkerPanic = errors.New("engine: worker panicked")

// panicError is the error a run fails with after recovering r: it wraps
// ErrWorkerPanic and, when r is an error, r itself, and carries the
// panicking goroutine's stack.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("%w: %w\n%s", ErrWorkerPanic, err, debug.Stack())
	}
	return fmt.Errorf("%w: %v\n%s", ErrWorkerPanic, r, debug.Stack())
}

// job is one top-level loop submitted to the pool. pending counts live
// tasks plus pieces in flight; whoever decrements it to zero completes
// the job. The invariant that a carve adds the piece before releasing
// the emptied task guarantees pending cannot touch zero while work
// remains.
type job struct {
	over    []uint32
	seg     int
	frames  []*vmFrame // one per pool worker slot
	cancel  *atomic.Bool
	stop    atomic.Int32
	pending atomic.Int64
	steals  atomic.Int64
	splits  atomic.Int64
	// stealsBy / splitsBy attribute steals (by the thief) and sheds (by
	// the shedding owner) to worker slots, feeding the per-worker
	// balance histograms.
	stealsBy []atomic.Int64
	splitsBy []atomic.Int64
	// progress, when non-nil, receives completion spans as pieces of the
	// outer range drain (Options.Progress).
	progress *ProgressTracker
	// panicErr is the first worker panic, written by the worker that
	// moved stop to stopPanic and read after done closes.
	panicErr error
	done     chan struct{}
}

// newJob builds a job for loop segment seg of master's program,
// creating one synced worker frame (and its consumer) per pool slot on
// the calling goroutine — Options.NewConsumer is never invoked
// concurrently.
func newJob(master *vmFrame, seg int, over []uint32, cancel *atomic.Bool, slots int, getConsumer func(int) Consumer) *job {
	j := &job{
		over:     over,
		seg:      seg,
		cancel:   cancel,
		frames:   make([]*vmFrame, slots),
		stealsBy: make([]atomic.Int64, slots),
		splitsBy: make([]atomic.Int64, slots),
		done:     make(chan struct{}),
	}
	for t := range j.frames {
		wf := master.sh.getFrame()
		wf.syncFrom(master)
		wf.consumer = getConsumer(t)
		wf.cancel = cancel
		wf.fuelBudget = master.fuelBudget
		wf.stopFlag = &j.stop
		// Workers inherit the master's profiling/progress arming; their
		// accumulators fold back via mergeFrom when the job drains.
		if master.prof != nil {
			wf.prof = &profAgg{}
			wf.lastKernel = NumKernels
		}
		wf.progress = master.progress
		j.frames[t] = wf
	}
	j.progress = master.progress
	return j
}

// finishPiece retires one unit of pending work and completes the job
// when it was the last.
func (j *job) finishPiece() {
	if j.pending.Add(-1) == 0 {
		close(j.done)
	}
}

// stealChunk is how many outer-loop iterations an owner carves from its
// deque per execution quantum: small enough that most of a task's range
// stays in the deque where thieves can halve it, large enough that the
// per-piece lock acquisition is amortized over real mining work.
const stealChunk = 64

// Pool is a persistent set of worker goroutines executing loop-range
// tasks with work stealing. It is safe for concurrent runJob calls from
// multiple goroutines: tasks carry their job, so workers interleave
// concurrent jobs fairly at piece granularity.
type Pool struct {
	size int

	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]*task // per-worker
	inject []*task   // submission queue, stolen from like any victim
	closed bool

	// waiting mirrors the number of parked workers so the shed fast
	// path (polled per depth-1 iteration) needs no lock.
	waiting atomic.Int32

	wg sync.WaitGroup
}

// NewPool starts a pool of `threads` workers.
func NewPool(threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	p := &Pool{size: threads, deques: make([][]*task, threads)}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < threads; i++ {
		p.wg.Add(1)
		go p.workerLoop(i)
	}
	obs.Default.Counter("engine.pools").Inc()
	obs.Default.Gauge("engine.pool.size").Set(int64(threads))
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// Close drains remaining work and stops the workers. The pool must not
// be used afterwards.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// runJob submits j's whole outer range as one task and blocks until
// every piece has drained. Splitting is driven entirely by demand:
// thieves halve the range, so startup reaches all workers in O(log n)
// steals without an upfront static partition.
func (p *Pool) runJob(j *job) {
	j.pending.Store(1)
	root := &task{j: j, seg: j.seg, lo: 0, hi: len(j.over)}
	p.mu.Lock()
	p.inject = append(p.inject, root)
	p.cond.Broadcast()
	p.mu.Unlock()
	<-j.done
}

func (p *Pool) workerLoop(id int) {
	defer p.wg.Done()
	for {
		pc, ok := p.findWork(id)
		if !ok {
			return
		}
		p.runPiece(id, pc)
	}
}

// findWork returns the next piece for worker id, parking when no work
// exists anywhere; ok=false means the pool closed (after a full drain).
func (p *Pool) findWork(id int) (piece, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if pc, ok := p.carveLocked(id); ok {
			return pc, true
		}
		if t, split := p.stealLocked(id); t != nil {
			if split {
				t.j.steals.Add(1)
				t.j.stealsBy[id].Add(1)
			}
			p.deques[id] = append(p.deques[id], t)
			continue // carve from it on the next pass
		}
		if p.closed {
			return piece{}, false
		}
		p.waiting.Add(1)
		p.cond.Wait()
		p.waiting.Add(-1)
	}
}

// carveLocked cuts one piece off the newest task in worker id's own
// deque. Outer tasks yield stealChunk iterations per piece (leaving the
// rest stealable); depth-1 tasks are taken whole — execD1 itself sheds
// further subranges while anybody is idle.
func (p *Pool) carveLocked(id int) (piece, bool) {
	d := p.deques[id]
	if len(d) == 0 {
		return piece{}, false
	}
	t := d[len(d)-1]
	lo, hi := t.lo, t.hi
	if !t.depth1 && hi-lo > stealChunk {
		hi = lo + stealChunk
	}
	t.lo = hi
	t.j.pending.Add(1) // the piece, added before the task can empty
	if t.lo >= t.hi {
		d[len(d)-1] = nil
		p.deques[id] = d[:len(d)-1]
		t.j.pending.Add(-1) // the emptied task; >0 because of the piece
	}
	return piece{t: t, lo: lo, hi: hi}, true
}

// stealLocked takes work for worker id from the inject queue or another
// worker's deque: the whole oldest task when its remainder is too small
// to split, otherwise a new task covering the upper half (split=true).
// Steals from the inject queue of a whole never-touched task are job
// pickup, not steals, and are not counted.
func (p *Pool) stealLocked(id int) (t *task, split bool) {
	if t, split = stealFrom(&p.inject); t != nil {
		return t, split
	}
	for off := 1; off < p.size; off++ {
		v := (id + off) % p.size
		if len(p.deques[v]) == 0 {
			continue
		}
		t, split = stealFrom(&p.deques[v])
		if !split {
			// Whole-task transfer between workers.
			t.j.steals.Add(1)
			t.j.stealsBy[id].Add(1)
		}
		return t, split
	}
	return nil, false
}

func stealFrom(d *[]*task) (*task, bool) {
	q := *d
	if len(q) == 0 {
		return nil, false
	}
	t := q[0]
	lim := stealChunk
	if t.depth1 {
		lim = d1SplitMin
	}
	if n := t.hi - t.lo; n > lim {
		mid := t.lo + n/2
		nt := &task{j: t.j, seg: t.seg, v: t.v, lo: mid, hi: t.hi, depth1: t.depth1, elemUnits: t.elemUnits}
		t.hi = mid
		t.j.pending.Add(1)
		return nt, true
	}
	copy(q, q[1:])
	q[len(q)-1] = nil
	*d = q[:len(q)-1]
	return t, false
}

// shedder lets execD1 push the upper half of a heavy depth-1 range as a
// stealable task when somebody is idle.
type shedder struct {
	p  *Pool
	j  *job
	id int // worker slot doing the shedding
}

func (s *shedder) shed(seg int, v uint32, lo, hi int, elemUnits int64) bool {
	p := s.p
	if p.waiting.Load() == 0 {
		return false // nobody idle: keep the range, zero-cost fast path
	}
	t := &task{j: s.j, seg: seg, v: v, lo: lo, hi: hi, depth1: true, elemUnits: elemUnits}
	s.j.pending.Add(1)
	p.mu.Lock()
	p.inject = append(p.inject, t)
	p.cond.Signal()
	p.mu.Unlock()
	s.j.splits.Add(1)
	s.j.splitsBy[s.id].Add(1)
	return true
}

// runPiece executes one carved range on worker id's frame for the
// piece's job. Pieces of a stopped job are discarded unexecuted so the
// job drains quickly.
func (p *Pool) runPiece(id int, pc piece) {
	t := pc.t
	j := t.j
	defer j.finishPiece()
	defer func() {
		if r := recover(); r != nil && j.stop.Swap(stopPanic) != stopPanic {
			j.panicErr = panicError(r)
		}
	}()
	if j.stop.Load() != stopRun {
		return
	}
	if j.cancel != nil && j.cancel.Load() {
		j.stop.CompareAndSwap(stopRun, stopCanceled)
		return
	}
	f := j.frames[id]
	sched := &shedder{p: p, j: j, id: id}
	ok := true
	if t.depth1 {
		ok = f.execD1(t.seg, t.v, pc.lo, pc.hi, t.elemUnits, sched)
	} else if f.splittable(t.seg) {
		for k := pc.lo; k < pc.hi && ok; k++ {
			if j.stop.Load() != stopRun {
				return
			}
			ok = f.execD1(t.seg, j.over[k], 0, -1, segSpan(len(j.over), k, k+1), sched)
		}
	} else {
		ok = f.execChunk(t.seg, j.over[pc.lo:pc.hi])
		if ok && j.progress != nil {
			j.progress.add(segSpan(len(j.over), pc.lo, pc.hi))
		}
	}
	if !ok {
		if f.cancelHit {
			j.stop.CompareAndSwap(stopRun, stopCanceled)
		} else {
			j.stop.CompareAndSwap(stopRun, stopConsumer)
		}
	}
}
