package core

// SetMaxLeafSize changes the leaf size bound this member's tree decisions
// use, so a test can make an existing leaf oversized.
func (a *Agent) SetMaxLeafSize(n int) {
	_ = a.stackNode().Call(func() { a.cfg.MaxLeafSize = n })
}
