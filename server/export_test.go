package server

// ScribbleReleasedBodies overwrites every binary request body as its buffer
// goes back to the pool — what the next request to take the buffer would do
// to it, done at once — until the returned func is called. Call it before
// the server under test starts and undo it after the server has stopped.
func ScribbleReleasedBodies() (undo func()) {
	released = func(b *reqBuf) {
		for i := range b.b {
			b.b[i] = 0xa5
		}
	}
	return func() { released = nil }
}
