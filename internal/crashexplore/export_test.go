package crashexplore

// LaunchWorkload exposes the slot writers, so an external test can run a
// census of its own.
var LaunchWorkload = launchWorkload
