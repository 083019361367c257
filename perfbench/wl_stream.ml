(* stream_epochs: an in-process service (no HTTP) runs one streaming spec
   through six epochs while its observation spool grows from half to all
   of the labeled observations of a default-world campaign.  Set-up makes
   that spool by simulating with inference off and shuffles it by the
   seed, so the timed region never enters the simulator: inference, the
   warm start and the service's durable writes dominate it.  A simulator
   gain should move only this workload's setup_s. *)

open Because_bgp
module Sc = Because_scenario
module Tel = Because_telemetry.Registry
module Svc = Because_service.Service
module Spec = Because_service.Spec
module Store = Because_service.Store
module Seed = Because_recover.Seed

let fractions = [ 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]
let id = "stream"

let line_of (path, damped) =
  String.concat " "
    ((if damped then "rfd" else "clean")
    :: List.map (fun a -> string_of_int (Asn.to_int a)) path)

(* Set-up: the default world's labeled observations, shuffled by [seed].
   Traced, the same campaign is driven layer by layer (Staged). *)
let setup ~seed ~spans =
  let c0 = Pb.start () in
  let t0 = Pb.now_s () in
  let world =
    Spans.with_ spans ~name:"topology.world_build" (fun () ->
        Sc.World.build Wl_campaign.world_params)
  in
  let world_s = Pb.now_s () -. t0 in
  let p =
    { (Wl_campaign.params ~seed:0 ~telemetry:Tel.disabled) with
      Sc.Campaign.run_inference = false }
  in
  let observations, layers =
    if Spans.enabled spans then begin
      let registry = Tel.create ~span_capacity:65536 () in
      let staged =
        Staged.run ~spans world { p with Sc.Campaign.telemetry = registry }
      in
      let snap = Tel.snapshot registry in
      Spans.add_program spans snap;
      let observations = Because_labeling.Label.observations staged.Staged.labeled in
      let total = Spans.total spans in
      ( observations,
        [ ("topology.world_build_s", world_s);
          ("collector.dump_s", total "collector.dump");
          ("collector.records", float_of_int (List.length staged.Staged.records));
          ("labeling.label_s", total "labeling.label");
          ("labeling.paths", float_of_int (List.length observations));
          ( "labeling.rfd_paths",
            float_of_int (List.length (List.filter snd observations)) );
          ("heuristics.evaluate_s", total "heuristics.evaluate") ]
        @ Derive.sim ~run_s:(total "sim.run") ~result:staged.Staged.sim snap )
    end
    else (Sc.Campaign.observations (Sc.Campaign.run world p), [])
  in
  (world, Pb.shuffle ~seed (Array.of_list observations), Pb.unstolen c0 (Pb.stop ()), layers)

let spec ~seed ~obs =
  { (Spec.default ~id) with Spec.seed = abs seed; chains = 4; obs = Some obs }

type epoch = {
  wall_s : float;
  admit_s : float;
  queue_wait_s : float;
  written : int;
  obs_count : int;
  healthy : bool;
  gate_sweeps : int option;
  estimates : Store.estimate array;
  seed_after : Seed.t option;  (* the posterior seed this epoch saved *)
}

let estimates_hash (es : Store.estimate array) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (e : Store.estimate) ->
      Printf.bprintf b "%d %h %h %h %d %b\n" (Asn.to_int e.Store.asn) e.Store.mean
        e.Store.lo e.Store.hi e.Store.category e.Store.damping)
    es;
  Digest.to_hex (Digest.string (Buffer.contents b))

let rec wait_done svc =
  match Svc.report_for svc ~id with
  | `Done _ -> ()
  | `Pending ->
      Thread.delay 0.002;
      wait_done svc
  | `Unknown -> Pb.fail "stream campaign unknown to the service"

(* One whole stream: six epochs, each appending the next tenth of the
   spool, submitting the spec and waiting for its report. *)
let run_stream ~seed ~observations ~telemetry ~spans =
  let dir = Pb.work_dir "stream" in
  let obs = Filename.concat dir "spool.obs" in
  let state = Filename.concat dir "state" in
  let cfg =
    { (Svc.default_config ~state_dir:state) with
      Svc.campaign_jobs = 2;
      telemetry }
  in
  let svc = Svc.create cfg in
  Svc.start svc;
  let spec = spec ~seed ~obs in
  (* The service keeps each streaming campaign's posterior seeds under
     campaigns/<id>/epochs.d of its state directory. *)
  let seed_dir =
    List.fold_left Filename.concat state [ "campaigns"; id; "epochs.d" ]
  in
  let n = Array.length observations in
  let written = ref 0 in
  let epochs =
    Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_append; Open_binary ]
      0o644 obs (fun oc ->
        List.map
          (fun frac ->
            let upto = int_of_float (Float.ceil (frac *. float_of_int n)) in
            let c0 = Pb.start () in
            let admit_s =
              Spans.with_ spans ~name:"stream.epoch" (fun () ->
                  for k = !written to upto - 1 do
                    output_string oc (line_of observations.(k));
                    output_char oc '\n'
                  done;
                  Out_channel.flush oc;
                  written := upto;
                  let (), admit_s =
                    Pb.timed (fun () ->
                        Spans.with_ spans ~name:"service.submit" (fun () ->
                            match Svc.submit svc spec with
                            | Ok _ -> ()
                            | Error r ->
                                Pb.fail "stream epoch refused: %s"
                                  (Because_service.Admission.reason_to_string r)))
                  in
                  Spans.with_ spans ~name:"service.wait_report" (fun () ->
                      wait_done svc);
                  admit_s)
            in
            let wall_s = Pb.unstolen c0 (Pb.stop ()) in
            let e = Option.get (Store.find (Svc.store svc) ~id) in
            { wall_s;
              admit_s;
              queue_wait_s = e.Store.queue_wait_s;
              written = upto;
              obs_count = e.Store.obs_count;
              healthy =
                (match e.Store.health with
                | Store.Done Because_recover.Supervise.Healthy -> true
                | _ -> false);
              gate_sweeps = e.Store.gate_sweeps;
              estimates = Array.copy e.Store.estimates;
              seed_after =
                Because_service.Epochs.load
                  (Because_service.Epochs.open_ ~dir:seed_dir ~id) })
          fractions)
  in
  Svc.stop_when_idle svc;
  ignore (Svc.join svc);
  let files, bytes = Pb.walk state in
  (epochs, files, bytes)

let check_epochs epochs =
  List.iteri
    (fun k e ->
      Pb.check (e.obs_count = e.written)
        "epoch %d read %d observations, %d were written" (k + 1) e.obs_count
        e.written;
      Pb.check (Array.length e.estimates > 0) "epoch %d has no estimates" (k + 1))
    epochs

(* Re-run one epoch's inference outside the service, through the public
   layer functions, exactly as Stream.run configures it.  Its estimates
   must equal the service's; it also yields the chains' R̂. *)
let replay_epoch ~spans ~seed ~observations ~epoch ~prev ~telemetry =
  let spec = spec ~seed ~obs:"replay" in
  let data =
    Spans.with_ spans ~name:"core.tomography" (fun () ->
        Because.Tomography.of_observations
          (Array.to_list (Array.sub observations 0 epoch.written)))
  in
  let burn_in = if prev <> None then max 1 (spec.Spec.burn_in / 4) else spec.Spec.burn_in in
  let init =
    Option.map
      (fun s ->
        Array.map
          (fun asn ->
            match Seed.lookup s (Asn.to_int asn) with
            | Some m -> Float.max 1e-4 (Float.min (1.0 -. 1e-4) m)
            | None -> 0.5)
          (Because.Tomography.nodes data))
      prev
  in
  let config =
    { Because.Infer.default_config with
      Because.Infer.n_samples = spec.Spec.samples;
      burn_in;
      n_chains = spec.Spec.chains;
      jobs = 2;
      telemetry;
      init }
  in
  let number = match prev with Some s -> s.Seed.epoch + 1 | None -> 1 in
  let rng = Because_stats.Rng.create ((spec.Spec.seed * 1009) + number) in
  let result =
    Spans.with_ spans ~name:"core.infer" (fun () -> Because.Infer.run ~rng ~config data)
  in
  let categories =
    Spans.with_ spans ~name:"core.categorize" (fun () ->
        Staged.categorize ~min_support:spec.Spec.min_path_support result)
  in
  Pb.check
    (estimates_hash (Store.estimates_of_result result ~categories)
     = estimates_hash epoch.estimates)
    "epoch %d: service estimates differ from a direct replay" number;
  (data, config, result)

(* Every epoch publishes an answer, so planted-truth quality is pooled
   over all six. *)
let quality world epochs =
  let truth = Sc.Deployment.detectable_dampers (Sc.World.deployment world) in
  Derive.pooled (List.map (fun e -> Derive.confusion ~truth e.estimates) epochs)

let prev_seeds epochs =
  None :: List.map (fun e -> e.seed_after) (List.rev (List.tl (List.rev epochs)))

let last l = List.nth l (List.length l - 1)

let same_estimates what a b =
  List.iteri
    (fun k (x, y) ->
      Pb.check
        (estimates_hash x.estimates = estimates_hash y.estimates)
        "epoch %d estimates differ between %s" (k + 1) what)
    (List.combine a b)

(* Whole streams are repeated until [seconds] have passed; each starts from
   a fresh service state, so every repeat must reproduce the first. *)
let untraced ~seed ~seconds =
  let off = Spans.create ~enabled:false ~run:"" in
  let world, observations, setup_s, _ = setup ~seed ~spans:off in
  let t0 = Pb.now_s () in
  let rec loop acc =
    let epochs, _, _ = run_stream ~seed ~observations ~telemetry:Tel.disabled ~spans:off in
    check_epochs epochs;
    let acc = epochs :: acc in
    if Pb.now_s () -. t0 >= seconds then List.rev acc else loop acc
  in
  let streams = loop [] in
  let epochs = List.hd streams in
  List.iter (same_estimates "repeated streams" epochs) (List.tl streams);
  let final = last epochs in
  let _, _, result =
    replay_epoch ~spans:off ~seed ~observations ~epoch:final
      ~prev:(last (prev_seeds epochs)) ~telemetry:Tel.disabled
  in
  let all = List.concat streams in
  let walls = List.map (fun e -> e.wall_s) all in
  let failed = List.length (List.filter (fun e -> not e.healthy) all) in
  let attempted = List.length all in
  let precision, recall = quality world epochs in
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
      [ Pb.detailf "spool_lines" "%d" (Array.length observations);
        Pb.detailf "streams" "%d" (List.length streams);
        Pb.detailf "stream_s" "%.3f" (Pb.median (List.map (fun s -> Pb.sum (List.map (fun e -> e.wall_s) s)) streams));
        Pb.detail "epoch_s" (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
        Pb.detailf "gate_passed" "%d"
          (List.length (List.filter (fun e -> e.gate_sweeps <> None) epochs));
        Pb.detailf "final_rhat_max" "%.4f" (Derive.rhat_max result) ] }

let traced ~seed ~seconds:_ ~spans =
  let off = Spans.create ~enabled:false ~run:"" in
  let _, observations, _, setup_layers = setup ~seed ~spans in
  let reference, _, _ = run_stream ~seed ~observations ~telemetry:Tel.disabled ~spans:off in
  let registry = Tel.create ~span_capacity:65536 () in
  let epochs, files, bytes =
    Spans.with_ spans ~name:"stream.run" (fun () ->
        run_stream ~seed ~observations ~telemetry:registry ~spans)
  in
  check_epochs epochs;
  same_estimates "the untraced and traced streams" reference epochs;
  let untraced_s = Pb.sum (List.map (fun e -> e.wall_s) reference) in
  let stream_s = Pb.sum (List.map (fun e -> e.wall_s) epochs) in
  let replay_registry = Tel.create ~span_capacity:65536 () in
  let replays =
    List.map2
      (fun epoch prev ->
        replay_epoch ~spans ~seed ~observations ~epoch ~prev ~telemetry:replay_registry)
      epochs (prev_seeds epochs)
  in
  let replay_snap = Tel.snapshot replay_registry in
  Spans.add_program spans (Tel.snapshot registry);
  Spans.add_program spans replay_snap;
  let total = Spans.total spans in
  let infer_s = total "core.infer" in
  let data, _, final = last replays in
  let per_epoch f = Pb.sum (List.map f epochs) in
  { Pb.attempted = 2 * List.length epochs;
    failed = List.length (List.filter (fun e -> not e.healthy) epochs);
    metrics =
      setup_layers
      @ [ ("core.tomography_s", total "core.tomography");
          ("core.infer_s", infer_s);
          ("core.categorize_s", total "core.categorize");
          ("core.nodes", float_of_int (Because.Tomography.n_nodes data));
          ("core.paths", float_of_int (Because.Tomography.n_paths data));
          ("recover.bytes_written", float_of_int bytes);
          ("recover.files", float_of_int files);
          ("service.admit_ms", Pb.median (List.map (fun e -> e.admit_s *. 1e3) epochs));
          ("service.queue_wait_s", per_epoch (fun e -> e.queue_wait_s));
          ("service.run_s", per_epoch (fun e -> e.wall_s -. e.queue_wait_s));
          ("service.stream_s", stream_s);
          ( "service.gate_passed",
            float_of_int
              (List.length (List.filter (fun e -> e.gate_sweeps <> None) epochs)) );
          ( "stats.parallel_efficiency",
            Derive.parallel_efficiency replay_snap ~jobs:2 ~wall_s:infer_s );
          ("mcmc.rhat_max", Derive.rhat_max final);
          ("telemetry.overhead_pct", (stream_s -. untraced_s) /. untraced_s *. 100.0) ]
      @ Derive.mcmc_many ~infer_s (List.map (fun (_, c, r) -> (c, r)) replays);
    details = [ Pb.detailf "untraced_stream_s" "%.3f" untraced_s ] }
