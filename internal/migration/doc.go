// Package migration models the two live-migration protocols compared in the
// paper's Section 6.5 (Figure 9):
//
//   - the vanilla pre-copy migration, which iteratively copies dirty pages
//     while the VM keeps running and whose duration is dominated by its three
//     copy rounds over the VM's full memory;
//   - the ZombieStack protocol, which stops the VM, copies only the hot pages
//     resident in the source host's local memory (about half of the working
//     set with the 50% placement rule), and leaves the remote part untouched:
//     only the ownership pointers of the remote buffers are updated.
//
// Both protocols move data over one fixed 10 GbE-like path; the network,
// the copy rounds, the redirty rate and the ownership-update cost are
// constants of the model, and only ZombieStack's remote buffer size is set
// per rack.
package migration
