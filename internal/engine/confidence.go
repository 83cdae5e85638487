package engine

import "math"

// This file is the confidence kernel of the ensemble wave scheduler
// (ClassifyItems' approximate early-exit mode): integer class-vote logits
// accumulate copy by copy, a LUT-softmax turns the leading-class margin into
// a fixed-point confidence, and two bounds decide when the remaining copy
// budget can stop being spent:
//
//   - Decided is exact: no allocation of the remaining copies' votes can
//     change the argmax decision (worst-case vote swing, integer-only). An
//     exit taken here is guaranteed to match the full-budget prediction —
//     the property pinned by TestGateDecidedImpliesFullBudgetPrediction.
//   - Confident is statistical: a LUT-softmax confidence screen over the
//     integer logits, then an empirical-Bernstein bound on the probability
//     that the remaining copies' vote swing flips the leader. Exits taken
//     here may (rarely) disagree with the full budget; the tolerated
//     disagreement is 1-conf per item.
//
// Everything the gate computes is deterministic for fixed inputs: integer
// arithmetic throughout the vote path, and fixed-shape float64 expressions
// (explicitly rounded, no fused multiply-add) in the Bernstein tail bound.

const (
	// lutLen is the softmax exp table length; larger margins saturate.
	lutLen = 128
	// lutOne is the Q16 fixed-point unit: expLUT[0] = e^0 = lutOne.
	lutOne = 1 << 16
	// lutStep is the table resolution: entry d holds exp(-d/lutStep).
	lutStep = 16
	// logitScale maps a per-copy-per-tick class firing rate in [0,1] onto
	// the integer logit domain [0, logitScale]. Together with lutStep it
	// fixes the softmax temperature: a rate gap of lutStep/logitScale
	// (1/256) between leader and runner-up scores exp(-1), and gaps beyond
	// lutLen*lutStep/logitScale (~0.5) saturate the table. The scale is
	// deliberately sharp: merged readouts vote hundreds of neuron-ticks per
	// copy, so class rate gaps of a few percent are already many standard
	// errors wide.
	logitScale = 4096
)

// expLUT[d] = round(exp(-d/lutStep) * lutOne): the Q16 decaying-exponential
// table behind the integer softmax. Computed once at init from math.Exp
// (a deterministic software implementation), consumed integer-only.
var expLUT [lutLen]uint32

func init() {
	for d := range expLUT {
		expLUT[d] = uint32(math.Round(math.Exp(-float64(d)/lutStep) * lutOne))
	}
}

// Gate is the per-item early-exit rule of the ensemble wave scheduler. It is
// built once per worker for a predictor's class weights and re-armed per item
// with Reset; Observe feeds it one copy's class votes at a time.
type Gate struct {
	// classN[k] is the vote normalization of class k (number of readout
	// neurons merged into the class); mirrors SampledNet.DecideClass.
	classN []int
	// cross[a*K+b] = sum over observed copies of votes[a]*votes[b], the raw
	// second moments behind the empirical margin variance. Only the entries
	// with a <= b are maintained.
	cross []int64
	// m is the number of copies observed since Reset.
	m int
	// spf bounds one copy's per-class normalized vote: counts[k] <= spf*classN[k].
	spf int
	// confQ16 is the statistical exit threshold in Q16 (conf * lutOne).
	confQ16 uint64
	// lnTerm = ln(1/(1-conf)): the Bernstein tail budget. +Inf at conf >= 1
	// disables the statistical exit entirely (Decided-only).
	lnTerm float64
	// moments is false when the statistical exit can never fire (conf <= 0
	// or conf >= 1), letting Observe skip the O(classes^2) cross moments.
	moments bool
}

// NewGate returns a gate for a readout with the given per-class vote weights.
// The returned gate must be armed with Reset before use.
func NewGate(classN []int) *Gate {
	k := len(classN)
	return &Gate{
		classN: append([]int(nil), classN...),
		cross:  make([]int64, k*k),
	}
}

// Reset re-arms the gate for one item: spf temporal samples per copy and
// early-exit threshold conf in [0,1]. conf <= 0 disables the statistical
// exit; conf >= 1 keeps only the exact Decided bound.
func (g *Gate) Reset(spf int, conf float64) {
	for i := range g.cross {
		g.cross[i] = 0
	}
	g.m = 0
	g.spf = spf
	if conf <= 0 || conf >= 1 {
		// Outside (0,1) the statistical exit never fires: conf=0 is the
		// exact full-budget mode, conf>=1 keeps only the Decided bound.
		g.confQ16 = lutOne + 1
		g.lnTerm = math.Inf(1)
		g.moments = false
		return
	}
	g.confQ16 = uint64(conf * lutOne)
	// The LUT-softmax saturates: with K classes the largest confidence a
	// fully separated vote can score is lutOne^2/(lutOne + (K-1)*tail). Cap
	// the screen threshold there, or conf above the asymptote (0.99 on a
	// 10-class readout) would demand the unreachable and silently turn the
	// statistical exit off. The screen stays a margin filter; the Bernstein
	// bound below it carries the actual 1-conf guarantee either way.
	if k := uint64(len(g.classN)); k > 1 {
		maxConf := lutOne * lutOne / (lutOne + (k-1)*uint64(expLUT[lutLen-1]))
		if g.confQ16 > maxConf {
			g.confQ16 = maxConf
		}
	}
	g.lnTerm = math.Log(1 / (1 - conf))
	g.moments = true
}

// Observe records one copy's class votes (its per-class spike counts for the
// frame). Votes must be the copy's own counts, not the running ensemble total.
func (g *Gate) Observe(votes []int64) {
	if !g.moments {
		g.m++
		return
	}
	k := len(g.classN)
	for a := 0; a < k; a++ {
		va := votes[a]
		if va == 0 {
			continue
		}
		row := g.cross[a*k:]
		for b := a; b < k; b++ {
			row[b] += va * votes[b]
		}
	}
	g.m++
}

// Leader returns the argmax class of the accumulated vote totals under the
// same normalization and tie-breaking as SampledNet.DecideClass (ties resolve
// to the lowest class index), evaluated with exact integer cross products.
func (g *Gate) Leader(counts []int64) int {
	best := 0
	for k := 1; k < len(g.classN); k++ {
		if counts[k]*int64(g.classN[best]) > counts[best]*int64(g.classN[k]) {
			best = k
		}
	}
	return best
}

// Decided reports whether the decision is exact-unassailable: even if every
// one of the remaining copies casts its maximum possible vote (spf spikes per
// neuron) for a challenger while the leader gains nothing, the challenger
// still cannot take the argmax. Integer-only; an exit here always matches the
// full-budget prediction.
func (g *Gate) Decided(counts []int64, leader, remaining int) bool {
	nL := int64(g.classN[leader])
	swing := int64(remaining) * int64(g.spf)
	for k := range g.classN {
		if k == leader {
			continue
		}
		nK := int64(g.classN[k])
		// Challenger k's best final normalized score vs the leader's floor:
		// (counts[k] + swing*nK)/nK  vs  counts[leader]/nL, cross-multiplied.
		lhs := (counts[k] + swing*nK) * nL
		rhs := counts[leader] * nK
		// A final tie goes to the lower class index.
		if lhs > rhs || (lhs == rhs && k < leader) {
			return false
		}
	}
	return true
}

// SoftmaxConf returns the leader's LUT-softmax confidence over the integer
// mean-rate logits, in Q16 (lutOne = certainty). Integer-only.
func (g *Gate) SoftmaxConf(counts []int64, leader int) uint64 {
	denom := int64(g.m) * int64(g.spf)
	if denom == 0 {
		return 0
	}
	lL := counts[leader] * logitScale / (int64(g.classN[leader]) * denom)
	var sumE uint64
	for k := range g.classN {
		d := lL - counts[k]*logitScale/(int64(g.classN[k])*denom)
		if d >= lutLen {
			d = lutLen - 1
		}
		sumE += uint64(expLUT[d])
	}
	return lutOne * lutOne / sumE
}

// Confident applies the statistical exit rule after the observed copies: the
// LUT-softmax confidence must reach the threshold, and a Freedman-style
// empirical-Bernstein bound on the remaining copies' vote swing must put the
// probability of the runner-up overtaking the leader below 1-conf. The bound
// works at neuron-tick granularity: the unplayed vote stream is a sum of
// remaining*spf*(nL+nU) increments, each moving the normalized margin by at
// most one spike quantum (1/nL or 1/nU), with its predictable variance
// estimated from the observed per-copy margins. The variance is a plug-in
// estimate (CLT-grade, not distribution-free — a 16-copy budget admits no
// useful distribution-free tail), so the 1-conf miss rate is a calibration
// target, validated empirically by the earlyexit sweep and the accuracy-loss
// acceptance bound rather than proven. Requires at least two observed copies.
func (g *Gate) Confident(counts []int64, leader, remaining int) bool {
	if g.m < 2 || g.confQ16 > lutOne {
		return false
	}
	if g.SoftmaxConf(counts, leader) < g.confQ16 {
		return false
	}
	if len(g.classN) < 2 {
		return true
	}
	// Runner-up: best challenger by normalized score (exact cross products).
	runner := -1
	for k := range g.classN {
		if k == leader {
			continue
		}
		if runner < 0 || counts[k]*int64(g.classN[runner]) > counts[runner]*int64(g.classN[k]) {
			runner = k
		}
	}
	nL := int64(g.classN[leader])
	nU := int64(g.classN[runner])
	k := len(g.classN)
	sLL := g.cross[leader*k+leader]
	sUU := g.cross[runner*k+runner]
	var sLU int64
	if leader < runner {
		sLU = g.cross[leader*k+runner]
	} else {
		sLU = g.cross[runner*k+leader]
	}
	// Per-copy margin samples x_i = vL_i/nL - vU_i/nU, each in [-spf, +spf].
	// First and second raw moments from the vote totals and cross moments.
	// Every float64 product is explicitly rounded via float64(...) so the
	// expressions cannot be fused into FMA — the comparison below is then a
	// fixed, reproducible arithmetic shape.
	fnL := float64(nL)
	fnU := float64(nU)
	sumX := float64(counts[leader])/fnL - float64(counts[runner])/fnU
	sumX2 := float64(sLL)/float64(nL*nL) - 2*(float64(sLU)/float64(nL*nU)) + float64(sUU)/float64(nU*nU)
	fm := float64(g.m)
	mean := sumX / fm
	variance := (sumX2 - float64(sumX*mean)) / (fm - 1)
	// One neuron-tick moves the margin by at most a spike quantum; it is
	// both the Freedman increment bound and the scale of the variance
	// guards below.
	q := 1/fnL + 1/fnU
	c := 1 / fnL
	if fnU < fnL {
		c = 1 / fnU
	}
	// Guard the plug-in variance from below: a per-copy margin is a sum of
	// spf*(nL+nU) spike draws, so even near-constant observed samples are
	// credited the fair-coin CLT variance of that sum (spf*q/4). This also
	// absorbs negative float cancellation on constant samples.
	if floor := float64(float64(g.spf)*q) / 4; variance < floor {
		variance = floor
	}
	// Inflate for the variance estimate's own small-sample error
	// (Maurer-Pontil shape, at spike-quantum scale).
	variance += float64(float64(q*q)*g.lnTerm) / (2 * (fm - 1))
	// The leader flips only if the remaining copies' margin sum undercuts
	// -sumX, a shortfall of t below its i.i.d. expectation rem*mean.
	rem := float64(remaining)
	t := sumX + float64(rem*mean)
	if t <= 0 {
		return false
	}
	// Freedman tail over the remaining neuron-tick increments:
	// P(shortfall >= t) <= exp(-t^2 / (2*rem*var + (2/3)*c*t)).
	den := 2*float64(rem*variance) + float64((2.0/3.0)*c)*t
	return float64(t*t) >= float64(g.lnTerm*den)
}
