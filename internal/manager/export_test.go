package manager

// Len reports how many laser settings the memo holds.
func (m *LaserMemo) Len() int { return len(m.powers) }
