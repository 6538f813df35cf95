package main

// sizes pins every workload parameter. fullSize is what the ledger
// measures; smallSize is the scaled-down sibling from the same
// generators on which every count is checked against brute force (and
// which the package tests run end to end).
type sizes struct {
	Compile struct {
		N int     // G(n,p) vertices
		P float64 // edge probability
		K int     // motif size
		// Stride picks one motif from each run of Stride consecutive
		// MotifPatterns(K), by DrawSeed. The draw is pinned, not taken from
		// -seed: job latency differs by 10 % (quartile distance over median)
		// between draws and by 2 % between graphs, so a per-seed draw would
		// hide any change smaller than that.
		Stride   int
		DrawSeed int64
	}
	Census struct {
		Scale, EdgeFactor int // R-MAT
		Hub               int // BuildHubIndex threshold
		K                 int // motif size
	}
	PClique struct {
		N, Memberships, Size int // overlapping communities
		K, Missing           int // PseudoCliqueCount arguments
	}
	FSM struct {
		N          int
		P          float64
		Labels     int
		MinSupport int64
		MaxEdges   int
	}
	Serve struct {
		Scale, EdgeFactor int // labeled R-MAT written to an edge-list file
		Labels            int
		// MaxCost is the daemon's -max-cost: above every pattern the mix
		// executes, below the reject class's pattern.
		MaxCost float64
		Reject  string
		// Epoch is how many script entries a client sends between bumps of
		// its graph's cache epoch.
		Epoch int
		// WarmUp is how many script entries each client replays untimed.
		WarmUp int
	}
}

var fullSize = func() sizes {
	var s sizes
	s.Compile.N, s.Compile.P, s.Compile.K, s.Compile.Stride, s.Compile.DrawSeed = 240, 0.025, 6, 4, 1
	s.Census.Scale, s.Census.EdgeFactor, s.Census.Hub, s.Census.K = 10, 8, 64, 5
	s.PClique.N, s.PClique.Memberships, s.PClique.Size, s.PClique.K, s.PClique.Missing = 768, 6, 12, 6, 1
	s.FSM.N, s.FSM.P, s.FSM.Labels, s.FSM.MinSupport, s.FSM.MaxEdges = 6000, 0.002, 4, 100, 3
	s.Serve.Scale, s.Serve.EdgeFactor, s.Serve.Labels = 10, 8, 4
	s.Serve.MaxCost, s.Serve.Reject, s.Serve.Epoch, s.Serve.WarmUp = 2e8, "cycle-6", 40, 80
	return s
}()

var smallSize = func() sizes {
	var s sizes
	s.Compile.N, s.Compile.P, s.Compile.K, s.Compile.Stride, s.Compile.DrawSeed = 32, 0.12, 6, 16, 1
	s.Census.Scale, s.Census.EdgeFactor, s.Census.Hub, s.Census.K = 6, 5, 8, 5
	s.PClique.N, s.PClique.Memberships, s.PClique.Size, s.PClique.K, s.PClique.Missing = 72, 3, 8, 6, 1
	s.FSM.N, s.FSM.P, s.FSM.Labels, s.FSM.MinSupport, s.FSM.MaxEdges = 70, 0.07, 3, 6, 3
	s.Serve.Scale, s.Serve.EdgeFactor, s.Serve.Labels = 7, 5, 4
	s.Serve.MaxCost, s.Serve.Reject, s.Serve.Epoch, s.Serve.WarmUp = 8e5, "cycle-6", 40, 40
	return s
}()

// defaultSeed is the seed whose full-size answers are pinned below.
const defaultSeed = 1

// expected pins, for defaultSeed at fullSize, the sum of each
// workload's answer and how many patterns it covers. Any other seed
// skips only this pin; the oracle and cross-job equality still apply.
var expected = map[string]struct {
	Total int64
	Keys  int
}{
	"compile6-cold-gnp":       {Total: 1059450, Keys: 28},
	"census5-warm-rmat":       {Total: 1621040911, Keys: 21},
	"pclique6-warm-community": {Total: 365937, Keys: 1},
	"fsm-warm-labeled-gnp":    {Total: 167953, Keys: 266},
	serveName:                 {Total: 47573104, Keys: 10},
}
