(* campaign_default: one-shot campaigns on the default world — the
   ROADMAP's headline "how long does a campaign take" figure, about 60 % of
   which is simulation.  The seed shifts the Beacon schedule's start inside
   that one world (lead-in 30–59 min), which reorders the collector-noise
   draws and the anchor/oscillation interleaving while keeping the world
   the default one. *)

module Sc = Because_scenario
module Tel = Because_telemetry.Registry

(* The CLI's default world: 80 transit / 360 stub ASs, 60 vantage hosts. *)
let world_params = { Sc.World.default_params with Sc.World.n_vantage_hosts = 60 }

let params ~seed ~telemetry =
  let p = Sc.Campaign.default_params ~update_interval:60.0 in
  let p = Sc.Campaign.with_jobs ~n_chains:2 ~sim_jobs:2 p 2 in
  { p with
    Sc.Campaign.sim_shards = Some 4;
    lead_in = 1800.0 +. (60.0 *. float_of_int (abs seed mod 30));
    telemetry }

let world_builds = 25

(* Set-up is building the world; it is repeated and the median reported. *)
let setup ~spans =
  let builds =
    List.init world_builds (fun _ ->
        Pb.timed (fun () ->
            Spans.with_ spans ~name:"topology.world_build" (fun () ->
                Sc.World.build world_params)))
  in
  (fst (List.hd builds), Pb.median (List.map snd builds))

let quality world outcome =
  let m =
    Because.Evaluate.of_sets
      ~predicted:(Sc.Campaign.because_damping outcome)
      ~truth:(Sc.Deployment.detectable_dampers (Sc.World.deployment world))
      ~universe:(Sc.Campaign.universe outcome)
  in
  (m.Because.Evaluate.precision, m.Because.Evaluate.recall)

let healthy (o : Sc.Campaign.outcome) =
  match o.Sc.Campaign.status with
  | Because_recover.Supervise.Healthy -> true
  | _ -> false

(* Invariants every campaign outcome must satisfy. *)
let check_outcome (o : Sc.Campaign.outcome) =
  Pb.check (o.Sc.Campaign.result <> None) "campaign produced no posterior";
  Pb.check
    (Array.fold_left ( + ) 0 o.Sc.Campaign.shard_events = o.Sc.Campaign.events)
    "shard event counts do not sum to the event total";
  Pb.check
    (List.length o.Sc.Campaign.categories
     = Because_bgp.Asn.Set.cardinal (Sc.Campaign.universe o))
    "categories do not cover the measured ASs"

let untraced ~seed ~seconds =
  let spans = Spans.create ~enabled:false ~run:"" in
  let world, setup_s = setup ~spans in
  let p = params ~seed ~telemetry:Tel.disabled in
  let t0 = Pb.now_s () in
  let rec loop acc =
    let o, wall = Pb.timed_unstolen (fun () -> Sc.Campaign.run world p) in
    let acc = (o, wall) :: acc in
    if Pb.now_s () -. t0 >= seconds then List.rev acc else loop acc
  in
  let runs = loop [] in
  let first, _ = List.hd runs in
  List.iter
    (fun (o, _) ->
      check_outcome o;
      Pb.check
        (o.Sc.Campaign.categories = first.Sc.Campaign.categories)
        "repeated campaigns on one input disagree")
    runs;
  let walls = List.map snd runs in
  let attempted = List.length runs in
  let failed = List.length (List.filter (fun (o, _) -> not (healthy o)) runs) in
  let precision, recall = quality world first in
  let tail, tail_pct = Pb.tail walls in
  { Pb.attempted;
    failed;
    metrics =
      [ ("setup_s", setup_s);
        ("peak_rss_mb", Pb.peak_rss_mb ());
        ("ok_ratio", float_of_int (attempted - failed) /. float_of_int attempted);
        ("result_p50_s", Pb.median walls);
        ("precision", precision);
        ("recall", recall) ];
    details =
      [ Pb.detailf "campaigns" "%d" attempted;
        Pb.detailf "result_tail_s" "%.3f (p%.0f)" tail tail_pct;
        Pb.detailf "rhat_max" "%.4f" (Derive.rhat_max (Option.get first.Sc.Campaign.result));
        Pb.detailf "events" "%d" first.Sc.Campaign.events;
        Pb.detailf "labeled_paths" "%d" (List.length first.Sc.Campaign.labeled) ] }

let traced ~seed ~seconds:_ ~spans =
  let world, setup_s = setup ~spans in
  (* The untraced reference: the program exactly as a user runs it. *)
  let reference, untraced_s =
    Pb.timed_unstolen (fun () ->
        Sc.Campaign.run world (params ~seed ~telemetry:Tel.disabled))
  in
  check_outcome reference;
  let registry = Tel.create ~span_capacity:65536 () in
  let p = params ~seed ~telemetry:registry in
  let staged, traced_s =
    Pb.timed_unstolen (fun () ->
        Spans.with_ spans ~name:"campaign.staged" (fun () ->
            Staged.run ~spans world p))
  in
  let snap = Tel.snapshot registry in
  Spans.add_program spans snap;
  Pb.check
    (staged.Staged.categories = reference.Sc.Campaign.categories)
    "staged categories differ from Campaign.run";
  Pb.check
    (staged.Staged.sim.Because_sim.Sharded.shard_events
     = reference.Sc.Campaign.shard_events)
    "staged simulation differs from Campaign.run";
  Pb.check
    (List.length staged.Staged.labeled = List.length reference.Sc.Campaign.labeled)
    "staged labeling differs from Campaign.run";
  Pb.check
    (Because_bgp.Asn.Set.equal
       (Because_heuristics.Combine.damping_set staged.Staged.heuristics)
       (Sc.Campaign.heuristic_damping reference))
    "staged heuristics differ from Campaign.run";
  let total = Spans.total spans in
  let result = Option.get staged.Staged.result in
  let data = Option.get staged.Staged.data in
  let infer_s = total "core.infer" in
  let sim_s = total "sim.run" in
  let observations = Because_labeling.Label.observations staged.Staged.labeled in
  let layers =
    [ ("topology.world_build_s", setup_s);
      ("collector.dump_s", total "collector.dump");
      ("collector.records", float_of_int (List.length staged.Staged.records));
      ("labeling.label_s", total "labeling.label");
      ("labeling.paths", float_of_int (List.length observations));
      ( "labeling.rfd_paths",
        float_of_int (List.length (List.filter snd observations)) );
      ("heuristics.evaluate_s", total "heuristics.evaluate");
      ("core.tomography_s", total "core.tomography");
      ("core.infer_s", infer_s);
      ("core.categorize_s", total "core.categorize");
      ("core.nodes", float_of_int (Because.Tomography.n_nodes data));
      ("core.paths", float_of_int (Because.Tomography.n_paths data));
      ( "stats.parallel_efficiency",
        Derive.parallel_efficiency snap ~jobs:2 ~wall_s:(sim_s +. infer_s) );
      ("faults.realized", float_of_int (List.length reference.Sc.Campaign.fault_log));
      ("mcmc.rhat_max", Derive.rhat_max result);
      ("telemetry.overhead_pct", (traced_s -. untraced_s) /. untraced_s *. 100.0) ]
    @ Derive.sim ~run_s:sim_s ~result:staged.Staged.sim snap
    @ Derive.mcmc_many ~infer_s [ (p.Sc.Campaign.infer_config, result) ]
  in
  { Pb.attempted = 2;
    failed = (if healthy reference then 0 else 1);
    metrics = layers;
    details =
      [ Pb.detailf "untraced_campaign_s" "%.3f" untraced_s;
        Pb.detailf "traced_campaign_s" "%.3f" traced_s;
        Pb.detail "shard_events"
          (String.concat " "
             (Array.to_list
                (Array.map string_of_int reference.Sc.Campaign.shard_events))) ] }
