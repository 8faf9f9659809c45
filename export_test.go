package microp4

// InstallUnchecked installs a table entry without consulting the control
// schema, for tests of how the dataplane fails on state the schema would
// have refused.
func (s *Switch) InstallUnchecked(table string, keys []Key, action string, args ...uint64) {
	s.live().tables.AddEntry(table, toRuntime(keys), action, args...)
}
