#include "all_benchmarks.hpp"

namespace opsched::bench {

void register_all(Registry& reg) {
  register_fig1_op_scaling(reg);
  register_fig3_strategy_breakdown(reg);
  register_fig4_corun_events(reg);
  register_fig5_gpu_intraop(reg);
  register_table1_parallelism_grid(reg);
  register_table2_input_size(reg);
  register_table3_corun_strategies(reg);
  register_table4_regression_accuracy(reg);
  register_table5_hillclimb_accuracy(reg);
  register_table6_top_ops(reg);
  register_table7_gpu_corun(reg);
  register_ablation_design_choices(reg);
  register_ext_gpu_tuner(reg);
  register_ext_multi_knl(reg);
  register_host_corun(reg);
  register_multi_tenant(reg);
  register_deep_models(reg);
  register_serve_churn(reg);
  register_serve_slo(reg);
  register_serve_cluster(reg);
  register_micro_kernels(reg);
  register_micro_threadpool(reg);
  register_micro_dispatch(reg);
  register_micro_sim_step(reg);
  register_obs_overhead(reg);
}

}  // namespace opsched::bench
