package backend

// Work reports how many shapes the memo's family printed and verified.
func (m *Shapes) Work() (printed, checked int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.printed, m.checked
}
