(* A single-interval, fault-free campaign driven layer by layer through the
   public functions Campaign.run composes, with a benchmark span around
   each call.  It follows Campaign.run_multi step for step — same RNG
   salts, same call order — so its categories must equal the untraced
   Campaign.run's bit for bit; the campaign workload checks exactly that,
   which proves the per-layer times describe the program being measured. *)

open Because_bgp
module Sc = Because_scenario
module Schedule = Because_beacon.Schedule
module Site = Because_beacon.Site
module Script = Because_sim.Script
module Sharded = Because_sim.Sharded
module Plan = Because_faults.Plan

type t = {
  sim : Sharded.result;
  records : Because_collector.Dump.record list;
  labeled : Because_labeling.Label.labeled_path list;
  data : Because.Tomography.t option;
  result : Because.Infer.result option;
  categories : (Asn.t * Because.Categorize.t) list;
  heuristics : Because_heuristics.Combine.verdict list;
}

let categorize ~min_support r =
  let step1 = Because.Categorize.assign ~min_support r in
  let insufficient = Because.Categorize.insufficient r ~min_support in
  let promos =
    List.filter
      (fun (p : Because.Pinpoint.promotion) ->
        not (List.exists (Asn.equal p.Because.Pinpoint.asn) insufficient))
      (Because.Pinpoint.promotions r ~categories:step1)
  in
  Because.Pinpoint.apply step1 promos

let run ~spans world (p : Sc.Campaign.params) =
  if not (Plan.is_empty p.faults) || p.background_prefixes > 0
     || p.init_posterior <> None
  then invalid_arg "Staged.run: faults, churn and warm starts are not staged";
  let span name f = Spans.with_ spans ~name f in
  let interval = p.update_interval in
  let salt = (p.cycles * 31) + int_of_float (interval *. 7919.0) in
  let noise_rng = Sc.World.fresh_rng world ~salt:(salt + 1) in
  let schedule =
    Schedule.of_durations ~lead_in:p.lead_in ~update_interval:interval
      ~burst_duration:p.burst_duration ~break_duration:p.break_duration
      ~cycles:p.cycles ()
  in
  let campaign_end = Schedule.end_time schedule +. p.break_duration +. 600.0 in
  let anchor_cycles =
    1 + int_of_float (Float.ceil (campaign_end /. (2.0 *. p.anchor_period)))
  in
  let sites =
    List.map
      (fun (site_id, origin) ->
        Site.make ~site_id ~origin ~anchor_period:p.anchor_period ~anchor_cycles
          ~oscillating:[ schedule ] ())
      (Sc.World.site_origins world)
  in
  let script = Script.create () in
  span "beacon.install" (fun () ->
      List.iter
        (fun site ->
          Site.install
            ~outages:(Plan.site_outages p.faults ~site_id:site.Site.site_id)
            site script)
        sites);
  let gaps_of vp_id = Plan.collector_outages p.faults ~vp_id in
  let sim =
    span "sim.run" (fun () ->
        Sharded.run ~telemetry:p.telemetry ?shards:p.sim_shards ~jobs:p.sim_jobs
          ~configs:(Sc.World.router_configs world)
          ~delay:(Sc.World.delay world) ~monitored:(Sc.World.monitored world)
          ~until:campaign_end script)
  in
  let records =
    span "collector.dump" (fun () ->
        Because_collector.Dump.of_feeds ~gaps_of noise_rng
          ~feed_of:(Sharded.feed sim) ~vantages:(Sc.World.vantages world)
          ~noise:p.noise ~campaign_end ())
  in
  let oscillating =
    List.fold_left
      (fun acc site ->
        match Site.oscillating_prefix site ~interval with
        | Some pfx -> Prefix.Set.add pfx acc
        | None -> acc)
      Prefix.Set.empty sites
  in
  let windows = Schedule.windows schedule in
  let windows_of pfx = if Prefix.Set.mem pfx oscillating then windows else [] in
  let labeled =
    span "labeling.label" (fun () ->
        Because_labeling.Label.label_all ~min_r_delta:p.min_r_delta
          ~match_threshold:p.match_threshold ~gaps_of ~records ~windows_of ())
  in
  let observations = Because_labeling.Label.observations labeled in
  let data, result =
    if p.run_inference && observations <> [] then begin
      let data =
        span "core.tomography" (fun () ->
            Because.Tomography.of_observations observations)
      in
      let rng = Sc.World.fresh_rng world ~salt:(salt + 3) in
      let config =
        { p.infer_config with
          Because.Infer.node_priors = Sc.World.node_priors world;
          telemetry = p.telemetry }
      in
      (Some data, Some (span "core.infer" (fun () -> Because.Infer.run ~rng ~config data)))
    end
    else (None, None)
  in
  let categories =
    match result with
    | None -> []
    | Some r ->
        span "core.categorize" (fun () ->
            categorize ~min_support:p.min_path_support r)
  in
  let heuristics =
    if labeled = [] then []
    else
      span "heuristics.evaluate" (fun () ->
          Because_heuristics.Combine.evaluate ~records ~labeled ~windows_of ())
  in
  { sim; records; labeled; data; result; categories; heuristics }
