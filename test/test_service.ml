(* The always-on service: admission control, supervision, isolation,
   graceful drain and whole-service crash recovery.

   The heart of this suite is the service-level crash property: a service
   running several concurrent campaigns under severe injected faults,
   hard-killed at an arbitrary checkpoint boundary and warm-started, must
   complete every campaign with reports byte-for-byte identical to an
   uninterrupted service's — for 1 and 4 worker domains alike. *)

module Service = Because_service.Service
module Sspec = Because_service.Spec
module Admission = Because_service.Admission
module Store = Because_service.Store
module Supervise = Because_recover.Supervise

let fresh_dir () =
  let f = Filename.temp_file "because-service" ".dir" in
  Sys.remove f;
  f

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

(* Every test must leave the process-wide drain flag down: it is global
   state, and a leak would silently drain every later suite. *)
let with_drain_reset f =
  Fun.protect ~finally:(fun () -> Supervise.clear_drain ()) f

let tiny_spec ?(seed = 42) ?(faults = "none") id =
  { (Sspec.default ~id) with
    Sspec.seed;
    transit = 6;
    stub = 14;
    vantage_hosts = 5;
    samples = 80;
    burn_in = 40;
    faults }

let cfg ?(limit = 16) ?(jobs = 1) ?(max_attempts = 3) ?kill ?chaos ~dir () =
  { (Service.default_config ~state_dir:dir) with
    Service.limit;
    jobs;
    max_attempts;
    retry_backoff_s = 0.0;
    kill_after_saves = kill;
    chaos }

(* The ISSUE's soak shape: four concurrent campaigns, severe faults. *)
let soak_specs =
  [ tiny_spec ~seed:1 ~faults:"severe" "c1";
    tiny_spec ~seed:2 ~faults:"severe" "c2";
    tiny_spec ~seed:3 ~faults:"severe" "c3";
    tiny_spec ~seed:4 ~faults:"severe" "c4" ]

let submit_ok svc spec =
  match Service.submit svc spec with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "submit %s: %s" spec.Sspec.id
                 (Admission.reason_to_string r)

let reports svc specs =
  List.map
    (fun (s : Sspec.t) ->
      (s.Sspec.id, read_file (Service.report_path svc ~id:s.Sspec.id)))
    specs

(* Uninterrupted reference run over the soak specs, once per process. *)
let soak_reference =
  lazy
    (let dir = fresh_dir () in
     let svc = Service.create (cfg ~jobs:1 ~dir ()) in
     List.iter (submit_ok svc) soak_specs;
     (match Service.run_until_idle svc with
     | Service.Completed -> ()
     | _ -> Alcotest.fail "reference run did not complete");
     reports svc soak_specs)

(* ------------------------------------------------------------------ *)
(* Spec                                                                 *)

let test_spec_roundtrip () =
  let spec = tiny_spec ~seed:9 ~faults:"severe" "round-trip_1.a" in
  (match Sspec.of_line (Sspec.to_line spec) with
  | Ok back -> Alcotest.(check bool) "roundtrip" true (Sspec.equal spec back)
  | Error e -> Alcotest.fail e);
  (* Defaults fill missing keys; id is required. *)
  (match Sspec.of_line "id=x seed=7" with
  | Ok s ->
      Alcotest.(check int) "seed parsed" 7 s.Sspec.seed;
      Alcotest.(check int) "default samples" 400 s.Sspec.samples
  | Error e -> Alcotest.fail e);
  (match Sspec.of_line "seed=7" with
  | Ok _ -> Alcotest.fail "missing id accepted"
  | Error e -> Alcotest.(check bool) "id required" true (contains ~sub:"id" e));
  (match Sspec.of_line "id=x bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error _ -> ());
  (match Sspec.of_line "id=x faults=catastrophic" with
  | Ok _ -> Alcotest.fail "unknown severity accepted"
  | Error _ -> ());
  match Sspec.validate { spec with Sspec.id = "bad id" } with
  | Ok _ -> Alcotest.fail "spacey id accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Admission                                                            *)

let test_admission_rejections () =
  (match Admission.create ~limit:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "limit 0 accepted");
  let q = Admission.create ~limit:2 in
  Alcotest.(check int) "seq 0" 0 (Result.get_ok (Admission.admit q ~id:"a" 'a'));
  Alcotest.(check int) "seq 1" 1 (Result.get_ok (Admission.admit q ~id:"b" 'b'));
  (match Admission.admit q ~id:"a" 'x' with
  | Error (Admission.Duplicate { id }) ->
      Alcotest.(check string) "dup id" "a" id
  | _ -> Alcotest.fail "duplicate admitted");
  (match Admission.admit q ~id:"c" 'c' with
  | Error (Admission.Queue_full { limit }) ->
      Alcotest.(check int) "limit reported" 2 limit
  | _ -> Alcotest.fail "over-limit admitted");
  (* FIFO order, and taking frees capacity but never the id. *)
  (match Admission.take q with
  | Some (0, "a", 'a') -> ()
  | _ -> Alcotest.fail "take order");
  (match Admission.admit q ~id:"a" 'x' with
  | Error (Admission.Duplicate _) -> ()
  | _ -> Alcotest.fail "taken id reusable");
  Alcotest.(check int) "seq 2" 2 (Result.get_ok (Admission.admit q ~id:"c" 'c'));
  (* Requeued entries come back first. *)
  Admission.readmit q ~seq:0 ~id:"a" 'a';
  (match Admission.take q with
  | Some (0, "a", _) -> ()
  | _ -> Alcotest.fail "readmitted order");
  Admission.set_draining q true;
  match Admission.admit q ~id:"z" 'z' with
  | Error Admission.Draining -> ()
  | _ -> Alcotest.fail "draining admitted"

let test_service_admission () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let svc = Service.create (cfg ~limit:2 ~dir ()) in
  submit_ok svc (tiny_spec "a");
  submit_ok svc (tiny_spec "b");
  (match Service.submit svc (tiny_spec "c") with
  | Error (Admission.Queue_full { limit = 2 }) -> ()
  | _ -> Alcotest.fail "no backpressure past the limit");
  (match Service.submit svc (tiny_spec "a") with
  | Error (Admission.Duplicate _) -> ()
  | _ -> Alcotest.fail "duplicate id admitted");
  (match Service.submit svc { (tiny_spec "ok") with Sspec.cycles = 0 } with
  | Error (Admission.Invalid _) -> ()
  | _ -> Alcotest.fail "invalid spec admitted");
  Alcotest.(check int) "both queued" 2 (Service.pending svc);
  Service.drain svc;
  (match Service.submit svc (tiny_spec "d") with
  | Error Admission.Draining -> ()
  | _ -> Alcotest.fail "draining service admitted");
  (match Service.run_until_idle svc with
  | Service.Drained -> ()
  | _ -> Alcotest.fail "drained service did not report Drained");
  Service.reset_drain svc

(* ------------------------------------------------------------------ *)
(* Completion and the results store                                     *)

let test_service_completes () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let svc = Service.create (cfg ~jobs:2 ~dir ()) in
  let specs = [ tiny_spec "alpha"; tiny_spec ~seed:7 "beta" ] in
  List.iter (submit_ok svc) specs;
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  Alcotest.(check int) "exit 0" 0 (Service.exit_code svc Service.Completed);
  List.iter
    (fun (s : Sspec.t) ->
      match Store.find (Service.store svc) ~id:s.Sspec.id with
      | None -> Alcotest.failf "%s missing from store" s.Sspec.id
      | Some e ->
          Alcotest.(check string)
            (s.Sspec.id ^ " healthy") "healthy"
            (Store.health_label e.Store.health);
          Alcotest.(check bool)
            (s.Sspec.id ^ " has estimates") true
            (Array.length e.Store.estimates > 0);
          let report = read_file (Service.report_path svc ~id:s.Sspec.id) in
          Alcotest.(check bool)
            (s.Sspec.id ^ " report status") true
            (contains ~sub:"status: healthy" report))
    specs;
  (match Store.rollup (Service.store svc) with
  | Supervise.Healthy -> ()
  | _ -> Alcotest.fail "rollup not healthy");
  Service.write_status svc;
  let json = read_file (Service.status_path svc) in
  Alcotest.(check bool) "status json schema" true
    (contains ~sub:"because-service/1" json);
  Alcotest.(check bool) "status json rollup" true
    (contains ~sub:"\"rollup\": \"healthy\"" json)

(* ------------------------------------------------------------------ *)
(* Whole-service kill + warm start, bit-for-bit                         *)

let qcheck_service_kill_restart =
  QCheck.Test.make
    ~name:"SIGKILL the service at a random save, warm-start, bit-for-bit"
    ~count:4
    QCheck.(pair (int_range 1 24) (int_range 0 1))
    (fun (kill_after, par) ->
      with_drain_reset @@ fun () ->
      let jobs = if par = 1 then 4 else 1 in
      let dir = fresh_dir () in
      let killed =
        Service.create (cfg ~jobs ~kill:kill_after ~dir ())
      in
      List.iter (submit_ok killed) soak_specs;
      let first = Service.run_until_idle killed in
      let final =
        match first with
        | Service.Completed -> killed (* kill point beyond the run's saves *)
        | Service.Killed ->
            let resumed = Service.load (cfg ~jobs ~dir ()) in
            (match Service.run_until_idle resumed with
            | Service.Completed -> resumed
            | _ -> Alcotest.fail "warm start did not complete")
        | Service.Drained -> Alcotest.fail "kill reported as drain"
      in
      reports final soak_specs = Lazy.force soak_reference)

(* ------------------------------------------------------------------ *)
(* Graceful drain mid-run, then resume                                  *)

let test_drain_and_resume () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let svc = Service.create (cfg ~jobs:1 ~dir ()) in
  List.iter (submit_ok svc) soak_specs;
  Service.start svc;
  (* Let work actually start, then drain mid-campaign.  However the race
     lands — mid-simulation, mid-inference or between campaigns — the
     final reports must be unaffected. *)
  let deadline = 20_000_000 in
  let rec wait n =
    if Service.running svc = 0 && n < deadline then begin
      Domain.cpu_relax ();
      wait (n + 1)
    end
  in
  wait 0;
  Service.drain svc;
  (* Drain is idempotent: a second request (double SIGTERM) is absorbed,
     not an error, and the verdict is still a clean drain. *)
  Service.drain svc;
  (match Service.join svc with
  | Service.Drained -> ()
  | Service.Completed -> ()
  | Service.Killed -> Alcotest.fail "drain reported as kill");
  Service.reset_drain svc;
  let resumed = Service.load (cfg ~jobs:2 ~dir ()) in
  (match Service.run_until_idle resumed with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "post-drain warm start did not complete");
  Alcotest.(check bool) "reports equal the uninterrupted service's" true
    (reports resumed soak_specs = Lazy.force soak_reference)

(* ------------------------------------------------------------------ *)
(* Crash isolation and retry exhaustion                                 *)

let test_isolation_and_retry_exhaustion () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  (* Campaign "bad" crashes at its first checkpoint write on every
     attempt; its siblings must finish healthy and the service must keep
     accepting and running work afterwards. *)
  let chaos ~id ~attempt:_ = if id = "bad" then Some 1 else None in
  let svc = Service.create (cfg ~jobs:2 ~max_attempts:3 ~chaos ~dir ()) in
  submit_ok svc (tiny_spec "good1");
  submit_ok svc (tiny_spec ~seed:5 "bad");
  submit_ok svc (tiny_spec ~seed:6 "good2");
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "service exited instead of isolating the crash");
  let health id =
    match Store.find (Service.store svc) ~id with
    | Some e -> Store.health_label e.Store.health
    | None -> "missing"
  in
  Alcotest.(check string) "good1 healthy" "healthy" (health "good1");
  Alcotest.(check string) "good2 healthy" "healthy" (health "good2");
  Alcotest.(check string) "bad insufficient" "insufficient" (health "bad");
  (match Store.find (Service.store svc) ~id:"bad" with
  | Some e ->
      Alcotest.(check int) "all attempts burned" 3 e.Store.attempts;
      let report = read_file (Service.report_path svc ~id:"bad") in
      Alcotest.(check bool) "exhaustion reason in report" true
        (contains ~sub:"retry budget exhausted" report)
  | None -> Alcotest.fail "bad missing");
  (match Store.rollup (Service.store svc) with
  | Supervise.Insufficient _ -> ()
  | _ -> Alcotest.fail "rollup ignores the insufficient campaign");
  Alcotest.(check int) "exit 4" 4 (Service.exit_code svc Service.Completed);
  (* Still alive: new work is admitted and completes. *)
  submit_ok svc (tiny_spec ~seed:8 "late");
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "second generation did not complete");
  Alcotest.(check string) "late healthy" "healthy" (health "late")

(* ------------------------------------------------------------------ *)
(* Corrupt queue snapshot on warm start: quarantine + cold restart      *)

(* Garble the queue store's manifest: the fingerprint no longer matches,
   so the store quarantines the snapshot file. *)
let garble_manifest dir =
  let manifest = Filename.concat (Filename.concat dir "queue.d") "MANIFEST" in
  Out_channel.with_open_bin manifest (fun oc ->
      Out_channel.output_string oc "because-other-thing/99\n")

(* Replace the snapshot with one in the retired version-1 layout (no
   streaming fields): it passes the CRC but no longer decodes, so the
   warm start discards it. *)
let write_v1_queue ~spec dir =
  let module Codec = Because_recover.Codec in
  let w = Codec.writer () in
  Codec.int w 1;
  Codec.list w
    (fun w line ->
      Codec.string w line;
      Codec.int w 0;
      Codec.u8 w 1;
      Codec.list w Codec.string [];
      Codec.list w Codec.int [])
    [ Sspec.to_line spec ];
  let store =
    Because_recover.Checkpoint.open_
      ~dir:(Filename.concat dir "queue.d")
      ~fingerprint:"because-service-queue/1" ()
  in
  Because_recover.Checkpoint.save store ~key:"queue" (Codec.contents w)

let test_corrupt_queue_warm_start () =
  with_drain_reset @@ fun () ->
  let spec = tiny_spec "solo" in
  List.iter
    (fun (what, corrupt, warning) ->
      let dir = fresh_dir () in
      let svc = Service.create (cfg ~dir ()) in
      submit_ok svc spec;
      (match Service.run_until_idle svc with
      | Service.Completed -> ()
      | _ -> Alcotest.fail "seed run did not complete");
      let reference = read_file (Service.report_path svc ~id:"solo") in
      corrupt dir;
      (* The warm start must come up cold — warned, not crashed. *)
      let reloaded = Service.load (cfg ~dir ()) in
      Alcotest.(check bool) (what ^ ": warned") true
        (List.exists (contains ~sub:warning) (Service.warnings reloaded));
      Alcotest.(check (list string)) (what ^ ": store is cold") []
        (List.map
           (fun (e : Store.entry) -> e.Store.spec.Sspec.id)
           (Store.entries (Service.store reloaded)));
      (* The id is free again; rerunning the campaign reproduces the
         report. *)
      submit_ok reloaded spec;
      (match Service.run_until_idle reloaded with
      | Service.Completed -> ()
      | _ -> Alcotest.fail (what ^ ": cold restart did not complete"));
      Alcotest.(check bool) (what ^ ": report reproduced bit-for-bit") true
        (String.equal reference
           (read_file (Service.report_path reloaded ~id:"solo"))))
    [ ("garbled manifest", garble_manifest, "quarantined");
      ("version-1 payload", write_v1_queue ~spec, "queue snapshot v1") ]

(* ------------------------------------------------------------------ *)

let suite =
  ( "service",
    [
      Alcotest.test_case "spec line roundtrip" `Quick test_spec_roundtrip;
      Alcotest.test_case "admission rejections" `Quick
        test_admission_rejections;
      Alcotest.test_case "service admission + backpressure" `Quick
        test_service_admission;
      Alcotest.test_case "campaigns complete, store serves results" `Quick
        test_service_completes;
      QCheck_alcotest.to_alcotest qcheck_service_kill_restart;
      Alcotest.test_case "drain mid-run, resume bit-for-bit" `Quick
        test_drain_and_resume;
      Alcotest.test_case "crash isolation + retry exhaustion" `Quick
        test_isolation_and_retry_exhaustion;
      Alcotest.test_case "corrupt queue quarantined on warm start" `Quick
        test_corrupt_queue_warm_start;
    ] )
