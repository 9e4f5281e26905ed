package sdx

import "sync"

// ParkNextReadback makes the exchange's next reconciler readback wait,
// after the switch's table has been read and before the pass diffs and
// repairs, until release is called. parked is closed once it waits.
func ParkNextReadback(x *Exchange) (parked <-chan struct{}, release func()) {
	p, r := make(chan struct{}), make(chan struct{})
	var once sync.Once
	x.readback = func(string) {
		once.Do(func() {
			close(p)
			<-r
		})
	}
	return p, func() { close(r) }
}
