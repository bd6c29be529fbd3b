package adversary

import (
	"timebounds/internal/model"
)

// d1Shift returns the proof's Step 2 shift vector for last-operation z:
// x_i = (((z-i) mod k)/k - (k-1)/(2k)) · u, so that p_z moves
// (k-1)/(2k)·u earlier and p_{(z+1) mod k} moves (k-1)/(2k)·u later.
func d1Shift(k, z int, u model.Time) []model.Time {
	xs := make([]model.Time, k)
	for i := 0; i < k; i++ {
		num := int64(((z-i)%k+k)%k)*2 - int64(k-1) // 2k·x_i / u
		xs[i] = model.Time(int64(u) * num / int64(2*k))
	}
	return xs
}

// d1BaseDelays returns R1's delay matrix (Fig. 10): the k participating
// writers form the ring d_{i,j} = d - (((i-j) mod k)/k)·u; every pair
// involving an idle process l ≥ k uses d - u/2, exactly as the proof
// prescribes for k ≤ l ≤ n-1.
func d1BaseDelays(p model.Params, k int) [][]model.Time {
	n := p.N
	m := make([][]model.Time, n)
	for i := range m {
		m[i] = make([]model.Time, n)
		for j := range m[i] {
			if i == j {
				continue
			}
			if i >= k || j >= k {
				m[i][j] = p.D - p.U/2
				continue
			}
			rot := ((i-j)%k + k) % k
			m[i][j] = p.D - model.Time(int64(p.U)*int64(rot)/int64(k))
		}
	}
	return m
}

// shiftDelays applies formula (4.1): d'_{i,j} = d_{i,j} - x_i + x_j.
func shiftDelays(base [][]model.Time, xs []model.Time) [][]model.Time {
	k := len(base)
	out := make([][]model.Time, k)
	for i := range out {
		out[i] = make([]model.Time, k)
		for j := range out[i] {
			if i == j {
				continue
			}
			out[i][j] = base[i][j] - xs[i] + xs[j]
		}
	}
	return out
}

func uniformTimes(k int, t model.Time) []model.Time {
	out := make([]model.Time, k)
	for i := range out {
		out[i] = t
	}
	return out
}
