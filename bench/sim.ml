(* Simulator throughput and router hot-path benchmarks.

   Two measurements back the sharded-simulation work:

   - end-to-end campaign simulation throughput (events/second) through
     [Sharded.run] at jobs=1 and jobs=4 over the same recorded script, so
     the domain-parallel speedup is visible on multi-core runners (on a
     single-core machine jobs=4 is expected to tie or lose slightly to the
     sequential run);
   - the router hot path in isolation: ns per [handle_update] for the
     flattened router against [Baseline_router], the pre-flattening
     tuple-keyed implementation kept as a measurement reference;
   - the per-event cost of the bench world's Beacon-only campaign replay
     at 4 shards (the [campaign_default] sim shape): ns/event on 2 jobs
     and minor words/event, with the machine's core count.

   Results go to stdout and BENCH_sim.json (CI artifact, like
   BENCH_kernels.json). *)

open Because_bgp
module Sc = Because_scenario
module Ctx = Bench_context
module Rng = Because_stats.Rng
module Dist = Because_stats.Dist
module Script = Because_sim.Script
module Sharded = Because_sim.Sharded
module Schedule = Because_beacon.Schedule
module Site = Because_beacon.Site
module Manifest = Because_telemetry.Manifest

(* The same stimulus Campaign.run_multi records for a one-interval
   fault-free campaign: Beacon sites plus exponential background churn. *)
let build_script world (p : Sc.Campaign.params) ~churn_prefixes =
  let schedule =
    Schedule.of_durations ~lead_in:p.Sc.Campaign.lead_in
      ~update_interval:p.Sc.Campaign.update_interval
      ~burst_duration:p.Sc.Campaign.burst_duration
      ~break_duration:p.Sc.Campaign.break_duration ~cycles:p.Sc.Campaign.cycles
      ()
  in
  let campaign_end =
    Schedule.end_time schedule +. p.Sc.Campaign.break_duration +. 600.0
  in
  let anchor_cycles =
    1
    + int_of_float
        (Float.ceil (campaign_end /. (2.0 *. p.Sc.Campaign.anchor_period)))
  in
  let script = Script.create () in
  List.iter
    (fun (site_id, origin) ->
      let site =
        Site.make ~site_id ~origin ~anchor_period:p.Sc.Campaign.anchor_period
          ~anchor_cycles ~oscillating:[ schedule ] ()
      in
      Site.install site script)
    (Sc.World.site_origins world);
  let rng = Sc.World.fresh_rng world ~salt:4242 in
  let origins =
    List.fold_left
      (fun acc (_, o) -> Asn.Set.add o acc)
      Asn.Set.empty
      (Sc.World.site_origins world)
  in
  let candidates =
    Array.of_list
      (List.filter
         (fun a -> not (Asn.Set.mem a origins))
         (Because_topology.Graph.ases (Sc.World.graph world)))
  in
  let mean_gap = p.Sc.Campaign.background_mean_gap in
  for k = 0 to churn_prefixes - 1 do
    let origin = Rng.choice rng candidates in
    let prefix =
      (* Same formula as Campaign.schedule_background: /24s growing upward
         from 172.16.0.0. *)
      Prefix.make
        (Int32.add 0xAC100000l (Int32.shift_left (Int32.of_int k) 8))
        24
    in
    Script.announce script ~time:0.0 ~origin prefix;
    let t = ref (Dist.exponential rng ~rate:(1.0 /. mean_gap)) in
    let announced = ref true in
    while !t < campaign_end do
      if !announced then Script.withdraw script ~time:!t ~origin prefix
      else Script.announce script ~time:!t ~origin prefix;
      announced := not !announced;
      t := !t +. Dist.exponential rng ~rate:(1.0 /. mean_gap)
    done
  done;
  (script, campaign_end)

(* Best-of-N replays per row.  A single 3-second replay on a shared runner
   has a ~±10% noise floor — more than the paired overhead rows are trying
   to resolve — so each row takes the fastest of [reps] runs, and every
   replay starts from a compacted heap so no row inherits the major heap its
   predecessors grew. *)
(* [make_checkpoint] is a thunk so each rep gets a fresh store — otherwise
   rep 2 would find rep 1's saved shards and resume instead of simulate. *)
let time_run world ~jobs ?shards
    ?(telemetry = Because_telemetry.Registry.disabled) ?make_checkpoint ~until
    script =
  let reps = if Ctx.quick then 2 else 3 in
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let checkpoint = Option.map (fun f -> f ()) make_checkpoint in
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r =
      Sharded.run ~telemetry ~jobs ?shards ?checkpoint
        ~configs:(Sc.World.router_configs world)
        ~delay:(Sc.World.delay world)
        ~monitored:(Sc.World.monitored world)
        ~until script
    in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* Router hot path: one router with a dozen sessions absorbing a fixed
   randomized stream of announcements and withdrawals over 64 prefixes,
   with internet-realistic 6-hop AS paths.  The same stream drives both
   implementations; the run is long enough that [create] is noise. *)

let n_hot_updates = 8000

let hot_neighbor_asns = List.init 12 (fun i -> Asn.of_int (10 + i))

let hot_steps () =
  let rng = Rng.create 42 in
  let neighbors = Array.of_list hot_neighbor_asns in
  let prefixes =
    Array.init 64 (fun k -> Prefix.beacon ~site:(k / 4) ~slot:(k mod 4))
  in
  List.init n_hot_updates (fun i ->
      let from = neighbors.(Rng.int rng (Array.length neighbors)) in
      let prefix = prefixes.(Rng.int rng (Array.length prefixes)) in
      let now = float_of_int i *. 0.5 in
      let update =
        if Rng.float rng < 0.7 then
          Update.Announce
            {
              prefix;
              as_path =
                (from
                :: List.init 4 (fun _ -> Asn.of_int (100 + Rng.int rng 40)))
                @ [ Asn.of_int 65001 ];
              aggregator = None;
            }
        else Update.Withdraw { prefix }
      in
      (now, from, update))

let hot_relationship i =
  (* A mix of customers, peers and providers so export policy is exercised. *)
  match i mod 3 with
  | 0 -> Policy.Customer
  | 1 -> Policy.Peer
  | _ -> Policy.Provider

let flattened_config =
  {
    Router.asn = Asn.of_int 1;
    neighbors =
      List.mapi
        (fun i a ->
          { Router.neighbor_asn = a; relationship = hot_relationship i;
            mrai = 0.0 })
        hot_neighbor_asns;
    rfd_scope = Policy.All_neighbors;
    rfd_params = Rfd_params.cisco;
  }

let baseline_config =
  {
    Baseline_router.asn = Asn.of_int 1;
    neighbors =
      List.mapi
        (fun i a ->
          { Baseline_router.neighbor_asn = a; relationship = hot_relationship i;
            mrai = 0.0 })
        hot_neighbor_asns;
    rfd_scope = Policy.All_neighbors;
    rfd_params = Rfd_params.cisco;
  }

let router_tests () =
  let steps = hot_steps () in
  let flattened =
    Bechamel.Test.make ~name:"router 1k updates (flattened)"
      (Bechamel.Staged.stage (fun () ->
           let r = Router.create flattened_config in
           List.iter
             (fun (now, from, u) -> ignore (Router.handle_update r ~now ~from u))
             steps))
  in
  let baseline =
    Bechamel.Test.make ~name:"router 1k updates (baseline)"
      (Bechamel.Staged.stage (fun () ->
           let r = Baseline_router.create baseline_config in
           List.iter
             (fun (now, from, u) ->
               ignore (Baseline_router.handle_update r ~now ~from u))
             steps))
  in
  [ flattened; baseline ]

type row =
  | Throughput of {
      name : string;
      jobs : int;
      events : int;
      seconds : float;
      events_per_sec : float;
    }
  | Hot_path of { name : string; ns_per_update : float }
  | Per_event of {
      name : string;
      jobs : int;
      shards : int;
      cores : int;
      events : int;
      ns_per_event : float;
      minor_words_per_event : float;
    }

let write_json path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      Printf.fprintf oc "  \"schema\": \"because-bench-sim/1\",\n";
      Printf.fprintf oc "  \"quick\": %b,\n" Ctx.quick;
      output_string oc "  \"results\": [\n";
      List.iteri
        (fun k row ->
          (match row with
          | Throughput { name; jobs; events; seconds; events_per_sec } ->
              Printf.fprintf oc
                "    { \"name\": \"%s\", \"kind\": \"throughput\", \"jobs\": \
                 %d, \"events\": %d, \"seconds\": %.3f, \"events_per_sec\": \
                 %.1f }"
                (Manifest.json_escape name) jobs events seconds events_per_sec
          | Hot_path { name; ns_per_update } ->
              Printf.fprintf oc
                "    { \"name\": \"%s\", \"kind\": \"router\", \
                 \"ns_per_update\": %.2f }"
                (Manifest.json_escape name) ns_per_update
          | Per_event
              { name; jobs; shards; cores; events; ns_per_event;
                minor_words_per_event } ->
              Printf.fprintf oc
                "    { \"name\": \"%s\", \"kind\": \"per_event\", \"jobs\": \
                 %d, \"shards\": %d, \"cores\": %d, \"events\": %d, \
                 \"ns_per_event\": %.1f, \"minor_words_per_event\": %.2f }"
                (Manifest.json_escape name) jobs shards cores events
                ns_per_event minor_words_per_event);
          output_string oc (if k = List.length rows - 1 then "\n" else ",\n"))
        rows;
      output_string oc "  ]\n}\n")

let run () =
  Ctx.section "Simulator throughput (sharded, domain-parallel)";
  let world = Lazy.force Ctx.world in
  let params = Ctx.campaign_params 1.0 in
  let churn_prefixes = if Ctx.quick then 48 else 192 in
  let script, campaign_end = build_script world params ~churn_prefixes in
  Printf.printf
    "script: %d prefixes, campaign end %.0f s, %d churn prefixes\n%!"
    (Script.n_prefixes script) campaign_end churn_prefixes;
  (* One untimed warmup replay so the paired rows below compare steady-state
     runs instead of charging cold caches to whichever row happens first. *)
  ignore (time_run world ~jobs:1 ~until:campaign_end script);
  let throughput =
    List.map
      (fun jobs ->
        let r, seconds = time_run world ~jobs ~until:campaign_end script in
        let events_per_sec = float_of_int r.Sharded.events /. seconds in
        Printf.printf
          "jobs=%d: %d events in %.2f s (%.0f events/s, %d shards)\n%!" jobs
          r.Sharded.events seconds events_per_sec r.Sharded.shards;
        Throughput
          {
            name = Printf.sprintf "campaign sim (jobs=%d)" jobs;
            jobs;
            events = r.Sharded.events;
            seconds;
            events_per_sec;
          })
      [ 1; 4 ]
  in
  (match throughput with
  | [ Throughput a; Throughput b ] when a.events_per_sec > 0.0 ->
      Printf.printf "%-32s %11.2fx\n" "sim jobs=4 speedup"
        (b.events_per_sec /. a.events_per_sec)
  | _ -> ());
  (* The same jobs=1 replay with a live registry: the end-of-run flush is
     the only added work, so the delta is the whole telemetry cost. *)
  let telemetry_row =
    let reg = Because_telemetry.Registry.create () in
    let r, seconds =
      time_run world ~jobs:1 ~telemetry:reg ~until:campaign_end script
    in
    let events_per_sec = float_of_int r.Sharded.events /. seconds in
    Printf.printf "jobs=1 +telemetry: %d events in %.2f s (%.0f events/s)\n%!"
      r.Sharded.events seconds events_per_sec;
    Throughput
      {
        name = "campaign sim (jobs=1, telemetry)";
        jobs = 1;
        events = r.Sharded.events;
        seconds;
        events_per_sec;
      }
  in
  (match (throughput, telemetry_row) with
  | Throughput off :: _, Throughput on when on.events_per_sec > 0.0 ->
      Printf.printf "%-32s %+10.2f%%\n" "sim telemetry overhead"
        (((off.events_per_sec /. on.events_per_sec) -. 1.0) *. 100.0)
  | _ -> ());
  (* Paired with the jobs=1 baseline: the same replay saving each completed
     shard through live checkpoint hooks (the default cadence — one durable
     write per shard).  The recovery subsystem's acceptance bar is < 2%
     overhead on this pair. *)
  let checkpoint_row =
    let make_checkpoint () =
      let dir = Filename.temp_file "because-bench-ckpt" ".dir" in
      Sys.remove dir;
      let recovery = Sc.Recovery.create ~dir () in
      Sc.Recovery.attach recovery ~fingerprint:"bench-sim";
      Sc.Recovery.sim_hooks recovery
    in
    let r, seconds =
      time_run world ~jobs:1 ~make_checkpoint ~until:campaign_end script
    in
    let events_per_sec = float_of_int r.Sharded.events /. seconds in
    Printf.printf "jobs=1 +checkpoint: %d events in %.2f s (%.0f events/s)\n%!"
      r.Sharded.events seconds events_per_sec;
    Throughput
      {
        name = "campaign sim (jobs=1, checkpoint)";
        jobs = 1;
        events = r.Sharded.events;
        seconds;
        events_per_sec;
      }
  in
  (match (throughput, checkpoint_row) with
  | Throughput off :: _, Throughput on when on.events_per_sec > 0.0 ->
      Printf.printf "%-32s %+10.2f%%\n" "sim checkpoint overhead"
        (((off.events_per_sec /. on.events_per_sec) -. 1.0) *. 100.0)
  | _ -> ());
  (* The campaign_default sim shape: Beacon prefixes only (no background
     churn), 4 shards on 2 jobs.  Wall time is best-of-N; minor words come
     from a jobs=1 replay of the same 4 shards, because [Gc.minor_words]
     counts only the calling domain and the shards allocate the same words
     wherever they run. *)
  let per_event_row =
    let beacon_script, beacon_end =
      build_script world params ~churn_prefixes:0
    in
    let shards = 4 in
    let r, seconds =
      time_run world ~jobs:2 ~shards ~until:beacon_end beacon_script
    in
    let events = r.Sharded.events in
    let words =
      let w0 = Gc.minor_words () in
      ignore
        (Sharded.run ~jobs:1 ~shards
           ~configs:(Sc.World.router_configs world)
           ~delay:(Sc.World.delay world)
           ~monitored:(Sc.World.monitored world)
           ~until:beacon_end beacon_script);
      Gc.minor_words () -. w0
    in
    let cores = Domain.recommended_domain_count () in
    let ns_per_event = seconds *. 1e9 /. float_of_int (max 1 events) in
    let minor_words_per_event = words /. float_of_int (max 1 events) in
    Printf.printf
      "beacon replay, %d shards on 2 jobs (%d cores): %d events, %.0f \
       ns/event, %.1f minor words/event\n%!"
      shards cores events ns_per_event minor_words_per_event;
    Per_event
      {
        name = "beacon replay per event (4 shards, jobs=2)";
        jobs = 2;
        shards;
        cores;
        events;
        ns_per_event;
        minor_words_per_event;
      }
  in
  Ctx.section "Router hot path (flattened vs baseline)";
  let cfg =
    Bechamel.Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.5)
      ~kde:None ()
  in
  let hot_rows =
    List.filter_map
      (fun test ->
        let name =
          match Bechamel.Test.elements test with
          | [ e ] -> Bechamel.Test.Elt.name e
          | _ -> "?"
        in
        match Kernels.measure cfg test with
        | Some ns, _ ->
            let ns_per_update = ns /. float_of_int n_hot_updates in
            Printf.printf "%-32s %12.1f ns/update\n" name ns_per_update;
            Some (Hot_path { name; ns_per_update })
        | None, _ ->
            Printf.printf "%-32s (no estimate)\n" name;
            None)
      (router_tests ())
  in
  (match hot_rows with
  | [ Hot_path flat; Hot_path base ] when flat.ns_per_update > 0.0 ->
      Printf.printf "%-32s %11.2fx\n" "router flattening speedup"
        (base.ns_per_update /. flat.ns_per_update)
  | _ -> ());
  let rows =
    throughput @ [ telemetry_row; checkpoint_row; per_event_row ] @ hot_rows
  in
  write_json "BENCH_sim.json" rows;
  Printf.printf "wrote BENCH_sim.json (%d rows)\n" (List.length rows)
