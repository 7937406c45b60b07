package core

import "math"

// Score is the ranking function of Eq. 6: S(C) = d(C)^λ · Σ_{v∈C} w_v.
// Weights are degrees of summary (penalties), so lower scores rank better:
// the function rewards compact answers made of informative nodes, with λ
// controlling how strongly depth widens the penalty.
func Score(depth int, sumWeights, lambda float64) float64 {
	return math.Pow(float64(depth), lambda) * sumWeights
}
