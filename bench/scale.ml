(* Internet-scale sweep: events/second and peak RSS versus AS count.

   Each size runs in a FRESH CHILD PROCESS (spawned via [Unix.create_process]
   on our own executable with the hidden [--scale-child] argv mode) so that

   - peak RSS (VmHWM from /proc/self/status) measures that one world and not
     whatever the earlier, smaller sizes grew the heap to, and
   - no domains are live across the spawn (fork with running domains is a
     hazard under OCaml 5).

   The child builds a world scaled towards the target AS count
   ([World.scale_params], Tier-1 clique fixed), records a short churn-heavy
   campaign script, replays it through [Sharded.run] with collector feeds
   spilling to disk ([--feed-spill-dir] semantics), and prints one RESULT
   line the parent parses.

   Sizes: quick {100, 1000}; full {100, 1000, 5000, 10000}; override with
   BECAUSE_SCALE_ASES=100,1000,5000.  Rows scale.ases<N>.* go to
   BENCH_scale.json through {!Ledger}; CI's scale-smoke job guards the
   1000-AS events/s against bench/scale_baseline.json.  A size whose child
   fails gets no rows and makes the harness exit 1. *)

module Sc = Because_scenario
module Ctx = Bench_context
module Script = Because_sim.Script
module Sharded = Because_sim.Sharded
module Feed_log = Because_sim.Feed_log

(* Base world: 8 Tier-1s + 80 transit + 360 stub (+7 Beacon origins).  The
   scale factor stretches the transit/stub/vantage axes towards the target
   total.  Vantage hosts are capped near the real collector ecosystem's
   size (~400 full-feed sessions) — feeds are the output channel, not the
   thing whose scaling is under test. *)
let world_for ~ases =
  let base = Sc.World.default_params in
  let fixed = base.Sc.World.topology.Because_topology.Generate.n_tier1 + 7 in
  let edge =
    base.Sc.World.topology.Because_topology.Generate.n_transit
    + base.Sc.World.topology.Because_topology.Generate.n_stub
  in
  let factor = float_of_int (max 1 (ases - fixed)) /. float_of_int edge in
  let p = Sc.World.scale_params base ~factor in
  let p = { p with Sc.World.n_vantage_hosts = min p.Sc.World.n_vantage_hosts 416 } in
  Sc.World.build p

(* A short, churn-dominated stimulus: one Burst–Break cycle with 10-minute
   phases plus [churn] background /24s flapping a couple of times each.
   Event volume grows with world size (every update floods the graph), so
   the phases are kept short enough that 10k ASs finishes in tens of
   seconds while still processing millions of events. *)
let child_params =
  {
    (Sc.Campaign.default_params ~update_interval:60.0) with
    Sc.Campaign.cycles = 1;
    lead_in = 120.0;
    burst_duration = 600.0;
    break_duration = 600.0;
    anchor_period = 600.0;
    background_mean_gap = 600.0;
  }

let hwm_kb () =
  (* VmHWM — peak resident set — from /proc/self/status; 0 where the file
     does not exist (non-Linux), keeping the row shape portable. *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let peak = ref 0 in
          (try
             while true do
               let line = input_line ic in
               try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> peak := kb)
               with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
             done
           with End_of_file -> ());
          !peak)

let rm_rf dir =
  let rec go path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> go (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then go dir

(* ------------------------------------------------------------------ *)
(* Child: measure one size, print a RESULT line, exit.                  *)

let child = function
  | [ ases; churn; spill ] ->
      let ases = int_of_string ases
      and churn = int_of_string churn
      and spill = spill = "1" in
      let world = world_for ~ases in
      let graph = Sc.World.graph world in
      let n_ases = List.length (Because_topology.Graph.ases graph) in
      let n_links = List.length (Because_topology.Graph.links graph) in
      let script, campaign_end =
        Sim.build_script world child_params ~churn_prefixes:churn
      in
      Printf.printf "child: %d ASs, %d links, %d prefixes, end %.0f s\n%!"
        n_ases n_links (Script.n_prefixes script) campaign_end;
      let spill_dir =
        if not spill then None
        else begin
          let dir = Filename.temp_file "because-scale-feeds" ".dir" in
          Sys.remove dir;
          Some dir
        end
      in
      let feed_spill =
        Option.map
          (fun dir -> { Feed_log.dir; buffer = Feed_log.default_buffer })
          spill_dir
      in
      let t0 = Unix.gettimeofday () in
      let r =
        Sharded.run ~jobs:1 ?feed_spill
          ~configs:(Sc.World.router_configs world)
          ~delay:(Sc.World.delay world)
          ~monitored:(Sc.World.monitored world)
          ~until:campaign_end script
      in
      let seconds = Unix.gettimeofday () -. t0 in
      (* Force one spilled feed replay so the row's cost includes reading
         the on-disk log back, the way collection does. *)
      let replayed =
        match Sc.World.monitored world |> Because_bgp.Asn.Set.min_elt_opt with
        | None -> 0
        | Some a -> List.length (Sharded.feed r a)
      in
      Option.iter rm_rf spill_dir;
      Printf.printf
        "RESULT ases=%d links=%d prefixes=%d events=%d seconds=%.3f \
         hwm_kb=%d replayed=%d\n%!"
        n_ases n_links
        (Script.n_prefixes script)
        r.Sharded.events seconds (hwm_kb ()) replayed
  | _ ->
      prerr_endline "usage: --scale-child ASES CHURN SPILL01";
      exit 2

(* ------------------------------------------------------------------ *)
(* Parent: spawn one child per size, parse its RESULT, write the ledger. *)

type child_result = { ases : int; events : int; seconds : float; peak_rss_kb : int }

let run_child ~ases ~churn ~spill =
  let r, w = Unix.pipe () in
  let argv =
    [|
      Sys.executable_name; "--scale-child"; string_of_int ases;
      string_of_int churn; (if spill then "1" else "0");
    |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, List.rev !lines)

let parse_result lines =
  List.find_map
    (fun line ->
      match
        Scanf.sscanf line
          "RESULT ases=%d links=%d prefixes=%d events=%d seconds=%f \
           hwm_kb=%d replayed=%d"
          (fun ases _links _prefixes events seconds hwm_kb _replayed ->
            { ases; events; seconds; peak_rss_kb = hwm_kb })
      with
      | row -> Some row
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)
    lines

let sizes () =
  match Sys.getenv_opt "BECAUSE_SCALE_ASES" with
  | Some s ->
      List.filter_map
        (fun tok -> int_of_string_opt (String.trim tok))
        (String.split_on_char ',' s)
  | None -> if Ctx.quick then [ 100; 1000 ] else [ 100; 1000; 5000; 10000 ]

let run () =
  Ctx.section "Internet-scale sweep (events/s and peak RSS vs AS count)";
  let churn = if Ctx.quick then 128 else 1000 in
  let rows =
    List.filter_map
      (fun ases ->
        Printf.printf "[%d ASs, %d churn prefixes, feeds spilled ...]\n%!"
          ases churn;
        match run_child ~ases ~churn ~spill:true with
        | Unix.WEXITED 0, lines -> (
            List.iter print_endline
              (List.filter (fun l -> not (String.length l > 6 && String.sub l 0 6 = "RESULT")) lines);
            match parse_result lines with
            | Some row ->
                Printf.printf
                  "ases=%d: %d events in %.2f s (%.0f events/s), peak RSS %d \
                   MB\n%!"
                  row.ases row.events row.seconds
                  (float_of_int row.events /. row.seconds)
                  (row.peak_rss_kb / 1024);
                Some row
            | None ->
                Printf.printf "ases=%d: no RESULT line from child\n%!" ases;
                None)
        | status, _ ->
            Printf.printf "ases=%d: child failed (%s)\n%!" ases
              (match status with
              | Unix.WEXITED c -> Printf.sprintf "exit %d" c
              | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
              | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s);
            None)
      (sizes ())
  in
  (match rows with
  | first :: _ :: _ ->
      let last = List.nth rows (List.length rows - 1) in
      if first.peak_rss_kb > 0 && last.peak_rss_kb > 0 then
        Printf.printf "%-32s %11.2fx over %dx ASs\n" "peak RSS growth"
          (float_of_int last.peak_rss_kb /. float_of_int first.peak_rss_kb)
          (last.ases / max 1 first.ases)
  | _ -> ());
  (* Written even when every child failed: an empty ledger fails the shape
     check, so a sweep that measured nothing cannot pass as one that did. *)
  Ledger.write ~section:"scale"
    (List.concat_map
       (fun { ases; events; seconds; peak_rss_kb } ->
         let name q = Printf.sprintf "scale.ases%d.%s" ases q in
         [ Ledger.row (name "events") "count" Lower (float_of_int events);
           Ledger.row (name "run_s") "s" Lower seconds;
           Ledger.row (name "events_per_s") "1/s" Higher
             (float_of_int events /. seconds);
           Ledger.row (name "peak_rss_mb") "MB" Lower
             (float_of_int peak_rss_kb /. 1024.0) ])
       rows);
  let failed = List.length (sizes ()) - List.length rows in
  if failed > 0 then
    Ctx.fail (Printf.sprintf "scale: %d of the sizes produced no row" failed)
