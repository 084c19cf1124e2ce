//go:build !amd64

package fixed

// Without the amd64 assembly every primitive is its Go loop.

const avx2 = false

func maxAbs(v []Num) int                          { return maxAbsGo(v) }
func matVecAcc(sums []Acc, mat, vin []Num, k int) { matVecAccGo(sums, mat, vin, k) }
func vecMatAcc(sums []Acc, vin, mat []Num, k int) { vecMatAccGo(sums, vin, mat, k) }
func vadd(out, a, b []Num)                        { vaddGo(out, a, b) }
func vsub(out, a, b []Num)                        { vsubGo(out, a, b) }
func vmul(out, a, b []Num)                        { vmulGo(out, a, b) }
func vmax(out, a, b []Num)                        { vmaxGo(out, a, b) }
func vaddScalar(out, a []Num, s Num)              { vaddScalarGo(out, a, s) }
func vmulScalar(out, a []Num, s Num)              { vmulScalarGo(out, a, s) }
