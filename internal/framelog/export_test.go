package framelog

// SetSyncDirHook installs fn as the observer of every SyncDir call for the
// external tests of the logs built on this package; nil removes it.
func SetSyncDirHook(fn func(dir string)) { syncDirHook = fn }
