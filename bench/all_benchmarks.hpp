// Explicit registration roster for every benchmark in bench/. Each
// bench/<name>.cpp defines register_<name>(Registry&); register_all wires
// them into a registry in a fixed order. Explicit calls (instead of static
// initialisers) keep registration deterministic and immune to static-library
// dead-stripping, and let tests build registries from subsets.
#pragma once

#include "bench/registry.hpp"

namespace opsched::bench {

void register_fig1_op_scaling(Registry& reg);
void register_fig3_strategy_breakdown(Registry& reg);
void register_fig4_corun_events(Registry& reg);
void register_fig5_gpu_intraop(Registry& reg);
void register_table1_parallelism_grid(Registry& reg);
void register_table2_input_size(Registry& reg);
void register_table3_corun_strategies(Registry& reg);
void register_table4_regression_accuracy(Registry& reg);
void register_table5_hillclimb_accuracy(Registry& reg);
void register_table6_top_ops(Registry& reg);
void register_table7_gpu_corun(Registry& reg);
void register_ablation_design_choices(Registry& reg);
void register_ext_gpu_tuner(Registry& reg);
void register_ext_multi_knl(Registry& reg);
void register_host_corun(Registry& reg);
void register_multi_tenant(Registry& reg);
void register_deep_models(Registry& reg);
void register_serve_churn(Registry& reg);
void register_serve_slo(Registry& reg);
void register_serve_cluster(Registry& reg);
void register_micro_kernels(Registry& reg);
void register_micro_threadpool(Registry& reg);
void register_micro_dispatch(Registry& reg);
void register_micro_sim_step(Registry& reg);
void register_obs_overhead(Registry& reg);

/// Registers all of the above, in paper order (figures, tables, extensions,
/// micro-benches).
void register_all(Registry& reg);

}  // namespace opsched::bench
