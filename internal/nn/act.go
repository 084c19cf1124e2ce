package nn

import "math"

// Sigmoid is the logistic activation used throughout the paper's examples:
// f(a) = e^a / (1 + e^a) (Section III-B).
func Sigmoid(a float64) float64 {
	// The numerically-stable form matches the accelerator's computation
	// e^a/(1+e^a) over the fixed-point range.
	if a >= 0 {
		return 1 / (1 + math.Exp(-a))
	}
	e := math.Exp(a)
	return e / (1 + e)
}

// SigmoidSat mimics the accelerator's saturating pipeline: the fixed-point
// datapath clamps e^a at the Q8.8 maximum before the division, so large
// pre-activations plateau slightly below 1.
func SigmoidSat(a float64) float64 {
	const maxQ = 127.99609375 // fixed.Max in Q8.8
	e := math.Exp(a)
	if e > maxQ {
		e = maxQ
	}
	return e / (1 + e)
}

// SigmoidVec applies Sigmoid element-wise.
func SigmoidVec(v Vec) Vec {
	out := make(Vec, len(v))
	for i, x := range v {
		out[i] = Sigmoid(x)
	}
	return out
}
