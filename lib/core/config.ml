type t = {
  seed : int64;
  atpg : Atpg.Seq_atpg.config;
  random_phase : Atpg.Random_phase.config option;
  use_drain : bool;
  use_justify : bool;
  prune_redundant : bool;
  redundancy_budget : int;
  omission : Compaction.Omission.config;
  chains : int;
  sim_jobs : int;
  compact_jobs : int;
  observe : bool;
}

let default =
  {
    seed = 0x00C0FFEE5EEDL;
    atpg = Atpg.Seq_atpg.default_config;
    random_phase = Some Atpg.Random_phase.default_config;
    use_drain = true;
    use_justify = true;
    prune_redundant = true;
    redundancy_budget = 3000;
    omission = Compaction.Omission.default_config;
    chains = 1;
    sim_jobs = 1;
    compact_jobs = 1;
    observe = false;
  }

let for_circuit c = { default with atpg = Atpg.Seq_atpg.config_for c }

let with_sim_jobs jobs cfg =
  let jobs = max 1 jobs in
  { cfg with sim_jobs = jobs }

let with_compact_jobs jobs cfg =
  let jobs = max 1 jobs in
  { cfg with
    compact_jobs = jobs;
    omission = { cfg.omission with Compaction.Omission.jobs } }
