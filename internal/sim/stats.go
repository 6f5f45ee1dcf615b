package sim

// Tally accumulates scalar observations (response times, sizes) and reports
// their mean. The zero value is ready to use.
type Tally struct {
	n   int64
	sum float64
}

// Add records one observation.
func (t *Tally) Add(x float64) {
	t.n++
	t.sum += x
}

// Mean returns the average observation (0 when empty).
func (t *Tally) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}
