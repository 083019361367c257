(* Per-layer figures derived from what a layer call returned and from the
   program's own telemetry snapshot of the traced run. *)

module Snap = Because_telemetry.Snapshot
module Infer = Because.Infer
module Chain = Because_mcmc.Chain
module Diag = Because_mcmc.Diagnostics

let span_s snap name = Pb.s_of_ns (Snap.span_total_ns snap ~name)

(* Summed duration of the program's spans whose name starts with [prefix]. *)
let busy_s snap prefix =
  List.fold_left
    (fun acc (s : Snap.span) ->
      if String.starts_with ~prefix s.name then acc +. Pb.s_of_ns s.dur_ns else acc)
    0.0 snap.Snap.spans

let counter snap name = float_of_int (Option.value ~default:0 (Snap.counter snap name))

(* Max over mean of per-shard event counts: 1.0 is perfect balance. *)
let imbalance shard_events =
  let n = Array.length shard_events in
  if n = 0 then nan
  else
    let total = Array.fold_left ( + ) 0 shard_events in
    let mx = Array.fold_left max 0 shard_events in
    float_of_int mx /. (float_of_int total /. float_of_int n)

let sim ~run_s ~(result : Because_sim.Sharded.result) snap =
  let events = float_of_int result.Because_sim.Sharded.events in
  let deliveries =
    float_of_int result.Because_sim.Sharded.stats.Because_sim.Network.deliveries
  in
  let replay = busy_s snap "sim.shard" in
  [ ("sim.run_s", run_s);
    ("sim.events", events);
    ("sim.deliveries", deliveries);
    ("sim.events_per_s", events /. run_s);
    ("sim.shard_imbalance", imbalance result.Because_sim.Sharded.shard_events);
    ("bgp.ns_per_delivery", replay *. 1e9 /. deliveries) ]
  @ List.init 4 (fun k ->
        ( Printf.sprintf "sim.shard%d.replay_s" k,
          span_s snap (Printf.sprintf "sim.shard%d.replay" k) ))

let mean = function
  | [] -> nan
  | xs -> Pb.sum xs /. float_of_int (List.length xs)

(* Sampler work and usefulness over one or more inference runs: sweeps
   attempted (burn-in included), the smallest per-coordinate effective
   sample size of any chain, and the sum over chains of that minimum per
   sweep attempted. *)
let mcmc_many ~infer_s runs =
  let chains =
    List.concat_map
      (fun ((config : Infer.config), (r : Infer.result)) ->
        let sweeps = config.burn_in + (config.n_samples * config.thin) in
        List.map (fun run -> (sweeps, run)) r.Infer.runs)
      runs
  in
  let sweeps = float_of_int (List.fold_left (fun acc (s, _) -> acc + s) 0 chains) in
  let min_ess (_, (run : Infer.sampler_run)) =
    let c = run.Infer.chain in
    let m = ref infinity in
    for d = 0 to Chain.dim c - 1 do
      m := Float.min !m (Diag.effective_sample_size (Chain.marginal c d))
    done;
    !m
  in
  let esses = List.map min_ess chains in
  let acceptance name =
    mean
      (List.filter_map
         (fun (_, (run : Infer.sampler_run)) ->
           if run.Infer.name = name then Some run.Infer.acceptance else None)
         chains)
  in
  [ ("mcmc.sweeps", sweeps);
    ("mcmc.sweeps_per_s", sweeps /. infer_s);
    ("mcmc.acceptance.MH", acceptance "MH");
    ("mcmc.acceptance.HMC", acceptance "HMC");
    ("mcmc.min_ess", List.fold_left Float.min infinity esses);
    ("mcmc.ess_per_sweep", Pb.sum esses /. sweeps) ]

let rhat_max r =
  List.fold_left (fun acc (_, v) -> Float.max acc v) neg_infinity (Infer.r_hat r)

(* Busy time of the program's per-shard and per-chain spans over the
   worker-seconds the enclosing phases offered. *)
let parallel_efficiency snap ~jobs ~wall_s =
  (busy_s snap "sim.shard" +. busy_s snap "infer.") /. (float_of_int jobs *. wall_s)

(* Planted-truth confusion counts of one published estimate table, over
   the ASs it covers. *)
let confusion ~truth (es : Because_service.Store.estimate array) =
  let module Set = Because_bgp.Asn.Set in
  let predicted, universe =
    Array.fold_left
      (fun (p, u) (e : Because_service.Store.estimate) ->
        ( (if e.damping then Set.add e.asn p else p), Set.add e.asn u ))
      (Set.empty, Set.empty) es
  in
  let m = Because.Evaluate.of_sets ~predicted ~truth ~universe in
  Because.Evaluate.(m.true_positives, m.false_positives, m.false_negatives)

(* Precision and recall pooled over several tables' confusion counts; 1.0
   when there is nothing to count, as Because.Evaluate does. *)
let pooled counts =
  let tp, fp, fn =
    List.fold_left
      (fun (a, b, c) (x, y, z) -> (a + x, b + y, c + z))
      (0, 0, 0) counts
  in
  let ratio a b = if a + b = 0 then 1.0 else float_of_int a /. float_of_int (a + b) in
  (ratio tp fp, ratio tp fn)
