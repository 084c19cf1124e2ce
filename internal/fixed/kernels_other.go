//go:build !amd64

package fixed

// Without the amd64 assembly every primitive is its Go loop.

const avx2 = false

func dotAcc(a, b []Num) Acc                        { return dotAccGo(a, b) }
func axpy2Acc(acc []Acc, r0, r1 []Num, v0, v1 Num) { axpy2AccGo(acc, r0, r1, v0, v1) }
func vadd(out, a, b []Num)                         { vaddGo(out, a, b) }
func vsub(out, a, b []Num)                         { vsubGo(out, a, b) }
func vmul(out, a, b []Num)                         { vmulGo(out, a, b) }
func vmax(out, a, b []Num)                         { vmaxGo(out, a, b) }
func vaddScalar(out, a []Num, s Num)               { vaddScalarGo(out, a, s) }
func vmulScalar(out, a []Num, s Num)               { vmulScalarGo(out, a, s) }
