// Package energy models the power and energy behaviour of servers and racks
// as the paper does in its evaluation (Section 6.6) and motivation (Section 2).
//
// It provides:
//
//   - MachineProfile: per-machine power fractions measured in the paper's
//     Table 3 (HP Compaq Elite 8300 and Dell Precision Tower 5810) for S0/S3/S4
//     with and without the Infiniband card, plus the Sz estimate of Equation 1;
//   - Prices, a profile compiled into the table the simulators price from;
//   - the energy-vs-utilization curve of Figure 1 (actual vs ideal
//     energy-proportional behaviour);
//   - the rack-architecture comparison of Figure 4 (server-centric, ideal
//     disaggregation, micro-servers, zombie);
//   - the motivation trends of Figures 2 and 3 (AWS memory:CPU demand ratio and
//     server-generation memory:CPU supply ratio);
//   - an Accumulator that integrates power over simulated time per ACPI state,
//     used by the datacenter simulator to produce Figure 10.
//
// All power figures are expressed as fractions of Emax, the energy consumed by
// the machine at full utilization, exactly as the paper reports them.
package energy
