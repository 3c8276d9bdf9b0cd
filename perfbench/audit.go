package main

import (
	"fmt"
	"math"
	"sync"

	"fastppv"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/metrics"
	"fastppv/internal/pagerank"
	"fastppv/internal/sparse"
)

// Tolerances of the guarantee check. The exact PPV is a power iteration that
// stops once successive iterates differ by less than 1e-10 in L1, so it is
// itself within ~1e-9 of the true vector.
const (
	entryTolerance = 1e-9
	l1Tolerance    = 1e-8
)

// routedTolerance is how far a routed answer's scores and bound may be from
// the single-node engine's. The router folds shard increments in a different
// order than one engine does, which moves some scores by an ulp; the
// router's own tests hold it to the same 1e-12.
const routedTolerance = 1e-12

// auditAnswer is an audited source's in-process answer.
type auditAnswer struct {
	node  graph.NodeID
	bound float64
	est   sparse.Vector
}

// auditOutcome tallies the checks of one audit.
type auditOutcome struct {
	checks    int
	failures  []error
	precision float64
	answers   []auditAnswer
}

func (a *auditOutcome) check(err error) {
	a.checks++
	if err != nil {
		a.failures = append(a.failures, err)
	}
}

// auditSources returns the first n distinct sources of the workload's
// source draw under the fixed auditSeed, so every run audits the same
// sources whatever its --seed.
func auditSources(w workload, g *graph.Graph, hubs []graph.NodeID, n int) []graph.NodeID {
	next := sourceSampler(w, auditSeed, g, hubs)
	limit := g.NumNodes()
	if w.hubSources {
		limit = len(hubs)
	}
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	for len(out) < n && len(seen) < limit {
		if v := next(); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// audit checks, for every source, that the served answer equals the
// reference engine's in-process answer (top-k nodes exactly; scores and
// bound bit for bit, or within tol when tol > 0), and that the reference
// estimate keeps the paper's guarantee against exact PPV: it is at most the
// exact PPV entrywise and its exact L1 gap is at most its bound phi. tamper,
// when non-nil, alters each served answer before the checks (the self-test
// uses it).
func audit(c *client, ref *core.Engine, eta int, tol float64, srcs []graph.NodeID, tamper func(*queryAnswer)) auditOutcome {
	var out auditOutcome
	stop := core.StopCondition{MaxIterations: eta}
	g := ref.Graph()
	exact := exactPPVs(g, srcs, ref.Options().Alpha)
	for i, src := range srcs {
		var s sample
		ans, err := c.query(src, &s)
		if err != nil {
			out.check(fmt.Errorf("audit query %d: %w", src, err))
			continue
		}
		if tamper != nil {
			tamper(ans)
		}
		res, err := ref.Query(src, stop)
		if err != nil {
			out.check(fmt.Errorf("reference query %d: %w", src, err))
			continue
		}
		out.check(checkIdentity(ans, res, tol))
		if exact[i].err != nil {
			out.check(fmt.Errorf("exact PPV of %d: %w", src, exact[i].err))
			continue
		}
		out.check(checkGuarantee(src, res.Estimate, res.L1ErrorBound, exact[i].v))
		served := make(sparse.Vector, len(ans.Results))
		for _, r := range ans.Results {
			served[graph.NodeID(r.Node)] = r.Score
		}
		out.precision += metrics.PrecisionAtK(exact[i].v, served, topK)
		out.answers = append(out.answers, auditAnswer{node: src, bound: res.L1ErrorBound, est: res.Estimate})
	}
	if len(srcs) > 0 {
		out.precision /= float64(len(srcs))
	}
	return out
}

// checkIdentity compares a served answer with the in-process result.
func checkIdentity(ans *queryAnswer, res *core.Result, tol float64) error {
	if ans.Degraded {
		return fmt.Errorf("node %d: audit answer served degraded", ans.Node)
	}
	if !same(ans.L1ErrorBound, res.L1ErrorBound, tol) || ans.Iterations != res.Iterations {
		return fmt.Errorf("node %d: served bound %v after %d iterations, in-process %v after %d",
			ans.Node, ans.L1ErrorBound, ans.Iterations, res.L1ErrorBound, res.Iterations)
	}
	top := res.TopK(topK)
	if len(top) != len(ans.Results) {
		return fmt.Errorf("node %d: served %d results, in-process %d", ans.Node, len(ans.Results), len(top))
	}
	for i, e := range top {
		r := ans.Results[i]
		if r.Node != int(e.Node) || !same(r.Score, e.Score, tol) {
			return fmt.Errorf("node %d: result %d served (%d, %v), in-process (%d, %v)",
				ans.Node, i, r.Node, r.Score, e.Node, e.Score)
		}
	}
	return nil
}

// same reports whether a and b are bit-identical, or within tol when tol > 0.
func same(a, b, tol float64) bool {
	if tol > 0 {
		return math.Abs(a-b) <= tol
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkGuarantee verifies the paper's accuracy guarantee for one estimate.
func checkGuarantee(src graph.NodeID, est sparse.Vector, bound float64, exact sparse.Vector) error {
	for v, x := range est {
		if x > exact[v]+entryTolerance {
			return fmt.Errorf("node %d: estimate %v at %d exceeds exact PPV %v", src, x, v, exact[v])
		}
	}
	if l1 := exact.L1Distance(est); l1 > bound+l1Tolerance {
		return fmt.Errorf("node %d: exact L1 error %v exceeds the reported bound %v", src, l1, bound)
	}
	return nil
}

type exactResult struct {
	v   sparse.Vector
	err error
}

// exactPPVs computes the exact PPV of every source on two goroutines.
func exactPPVs(g *graph.Graph, srcs []graph.NodeID, alpha float64) []exactResult {
	out := make([]exactResult, len(srcs))
	var wg sync.WaitGroup
	const workers = 2
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := k; i < len(srcs); i += workers {
				v, err := pagerank.ExactPPV(g, srcs[i], pagerank.Options{Alpha: alpha})
				out[i] = exactResult{v: v, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// durabilityAudit closes the stack's disk store, reopens it from its files
// and the original graph, and checks that the reopened engine reports the
// same epoch and byte-identical answers for every audited source. It returns
// the reopened engine's close function.
func durabilityAudit(st *stack, eta int, before []auditAnswer, out *auditOutcome) (*core.Engine, func() error, error) {
	epoch := st.engine.Epoch()
	if err := st.closeServing(); err != nil {
		return nil, nil, err
	}
	e, closeIdx, err := fastppv.OpenDiskIndexWithOptions(st.g0, st.opts, st.indexPath, st.dio)
	if err != nil {
		return nil, nil, fmt.Errorf("reopening the disk index: %w", err)
	}
	if e.Epoch() != epoch {
		out.check(fmt.Errorf("reopened index at epoch %d, closed at %d", e.Epoch(), epoch))
	} else {
		out.check(nil)
	}
	stop := core.StopCondition{MaxIterations: eta}
	for _, a := range before {
		res, err := e.Query(a.node, stop)
		if err != nil {
			out.check(fmt.Errorf("query %d after reopen: %w", a.node, err))
			continue
		}
		out.check(sameAnswer(a, res))
	}
	return e, closeIdx, nil
}

// sameAnswer requires bit-identical estimates and bounds.
func sameAnswer(a auditAnswer, res *core.Result) error {
	if math.Float64bits(a.bound) != math.Float64bits(res.L1ErrorBound) {
		return fmt.Errorf("node %d: bound %v after reopen, %v before", a.node, res.L1ErrorBound, a.bound)
	}
	if len(a.est) != len(res.Estimate) {
		return fmt.Errorf("node %d: %d estimate entries after reopen, %d before", a.node, len(res.Estimate), len(a.est))
	}
	for v, x := range a.est {
		if y, ok := res.Estimate[v]; !ok || math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("node %d: estimate at %d is %v after reopen, %v before", a.node, v, y, x)
		}
	}
	return nil
}
