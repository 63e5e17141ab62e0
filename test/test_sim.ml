(* Tests for the discrete-event engine and its blocking primitives. *)

open Amoeba_sim

let test_clock_starts_at_zero () =
  let eng = Engine.create () in
  Alcotest.(check int) "clock" 0 (Engine.now eng)

let test_schedule_order () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule eng ~after:30 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule eng ~after:10 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule eng ~after:20 (fun () -> log := 2 :: !log));
  Engine.run eng;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let test_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~after:7 (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~after:5 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run eng;
  Alcotest.(check bool) "cancelled" false !fired

let test_clock_advances () =
  let eng = Engine.create () in
  let seen = ref 0 in
  ignore (Engine.schedule eng ~after:Time.(us 42) (fun () -> seen := Engine.now eng));
  Engine.run eng;
  Alcotest.(check int) "time" 42_000 !seen

let test_run_until () =
  let eng = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule eng ~after:100 (fun () -> fired := true));
  Engine.run ~until:50 eng;
  Alcotest.(check bool) "not yet" false !fired;
  Alcotest.(check int) "clock clamped" 50 (Engine.now eng)

let test_sleep_sequence () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.sleep eng 10;
      log := Engine.now eng :: !log;
      Engine.sleep eng 15;
      log := Engine.now eng :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "wakeups" [ 10; 25 ] (List.rev !log)

let test_spawn_exception_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Engine.sleep eng 5;
      failwith "boom");
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      Engine.run eng)

let test_two_processes_interleave () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.sleep eng 10;
      log := "a10" :: !log;
      Engine.sleep eng 20;
      log := "a30" :: !log);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 15;
      log := "b15" :: !log;
      Engine.sleep eng 20;
      log := "b35" :: !log);
  Engine.run eng;
  Alcotest.(check (list string))
    "interleaving"
    [ "a10"; "b15"; "a30"; "b35" ]
    (List.rev !log)

let test_ivar_blocks_until_filled () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  let at = ref 0 in
  Engine.spawn eng (fun () ->
      got := Ivar.read eng iv;
      at := Engine.now eng);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 100;
      Ivar.fill iv 42);
  Engine.run eng;
  Alcotest.(check int) "value" 42 !got;
  Alcotest.(check int) "woken at fill time" 100 !at

let test_ivar_already_full () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill iv "x";
  let got = ref "" in
  Engine.spawn eng (fun () -> got := Ivar.read eng iv);
  Engine.run eng;
  Alcotest.(check string) "immediate" "x" !got

let test_ivar_double_fill_raises () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.(check bool) "try_fill refuses" false (Ivar.try_fill iv 2);
  Alcotest.check_raises "fill raises"
    (Invalid_argument "Ivar.fill: already filled") (fun () -> Ivar.fill iv 3)

let test_ivar_multiple_readers () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let woken = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        ignore (Ivar.read eng iv);
        woken := i :: !woken)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep eng 10;
      Ivar.fill iv ());
  Engine.run eng;
  Alcotest.(check (list int)) "all woken in order" [ 1; 2; 3 ] (List.rev !woken)

let test_channel_fifo () =
  let eng = Engine.create () in
  let ch = Channel.create () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Channel.recv eng ch :: !got
      done);
  Engine.spawn eng (fun () ->
      Channel.send ch 1;
      Channel.send ch 2;
      Channel.send ch 3);
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_channel_blocking_recv () =
  let eng = Engine.create () in
  let ch = Channel.create () in
  let at = ref (-1) in
  Engine.spawn eng (fun () ->
      ignore (Channel.recv eng ch);
      at := Engine.now eng);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 77;
      Channel.send ch ());
  Engine.run eng;
  Alcotest.(check int) "recv completes at send" 77 !at

let test_channel_recv_timeout_expires () =
  let eng = Engine.create () in
  let ch : unit Channel.t = Channel.create () in
  let result = ref (Some ()) in
  let at = ref 0 in
  Engine.spawn eng (fun () ->
      result := Channel.recv_timeout eng ch ~timeout:50;
      at := Engine.now eng);
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!result = None);
  Alcotest.(check int) "at deadline" 50 !at

let test_channel_recv_timeout_receives () =
  let eng = Engine.create () in
  let ch = Channel.create () in
  let result = ref None in
  Engine.spawn eng (fun () -> result := Channel.recv_timeout eng ch ~timeout:50);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 10;
      Channel.send ch 9);
  Engine.run eng;
  Alcotest.(check (option int)) "received" (Some 9) !result

let test_channel_timeout_does_not_eat_wakeup () =
  (* A reader that times out must not swallow the wakeup intended for a
     live reader queued behind it. *)
  let eng = Engine.create () in
  let ch = Channel.create () in
  let timed_out = ref false in
  let got = ref 0 in
  Engine.spawn eng (fun () ->
      timed_out := Channel.recv_timeout eng ch ~timeout:10 = None);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 5;
      got := Channel.recv eng ch);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 50;
      Channel.send ch 123);
  Engine.run eng;
  Alcotest.(check bool) "first reader timed out" true !timed_out;
  Alcotest.(check int) "second reader got value" 123 !got

let test_resource_exclusive () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" in
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Resource.consume r 10;
        log := (i, Engine.now eng) :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "serialised fifo"
    [ (1, 10); (2, 20); (3, 30) ]
    (List.rev !log)

let test_resource_busy_time () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" in
  Engine.spawn eng (fun () ->
      Resource.consume r 10;
      Engine.sleep eng 100;
      Resource.consume r 5);
  Engine.run eng;
  Alcotest.(check int) "busy total" 15 (Resource.busy_time r)

let test_resource_release_unheld_raises () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Resource.release: not held") (fun () ->
      Resource.release r)

let test_trace_by_layer () =
  let eng = Engine.create () in
  let tr = Trace.create () in
  Trace.enable tr;
  ignore
    (Engine.schedule eng ~after:100 (fun () ->
         Trace.record tr eng ~layer:"a" ~host:"h" 30;
         Trace.record tr eng ~layer:"b" ~host:"h" 20;
         Trace.record tr eng ~layer:"a" ~host:"h" 5));
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "totals" [ ("a", 35); ("b", 20) ] (Trace.by_layer tr)

let test_trace_disabled_records_nothing () =
  let eng = Engine.create () in
  let tr = Trace.create () in
  Trace.record tr eng ~layer:"a" ~host:"h" 30;
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans tr))

let test_stats_basics () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4. (Stats.max_value s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Stats.mean s);
  Alcotest.(check (float 1e-9)) "max empty" 0. (Stats.max_value s)

let test_time_conversions () =
  Alcotest.(check int) "us" 1_000 (Time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Time.ms 1);
  Alcotest.(check int) "sec" 1_000_000_000 (Time.sec 1);
  Alcotest.(check (float 1e-9)) "to_ms" 2.5 (Time.to_ms 2_500_000);
  Alcotest.(check int) "of_us_float rounds" 1_500 (Time.of_us_float 1.5)

let test_suspend_resume_is_one_shot () =
  (* The registered resume function may be called many times; only the
     first call wakes the process. *)
  let eng = Engine.create () in
  let resumes = ref None in
  let wakeups = ref 0 in
  Engine.spawn eng (fun () ->
      Engine.suspend eng ~register:(fun resume -> resumes := Some resume);
      incr wakeups);
  ignore
    (Engine.schedule eng ~after:10 (fun () ->
         match !resumes with
         | Some r ->
             r ();
             r ();
             r ()
         | None -> ()));
  Engine.run eng;
  Alcotest.(check int) "woken exactly once" 1 !wakeups

let test_step_count_advances () =
  let eng = Engine.create () in
  for _ = 1 to 5 do
    ignore (Engine.schedule eng ~after:1 (fun () -> ()))
  done;
  Engine.run eng;
  Alcotest.(check int) "five events processed" 5 (Engine.step_count eng)

let test_cancelled_events_not_counted () =
  let eng = Engine.create () in
  let h = Engine.schedule eng ~after:1 (fun () -> ()) in
  ignore (Engine.schedule eng ~after:2 (fun () -> ()));
  Engine.cancel h;
  Engine.run eng;
  Alcotest.(check int) "only the live event ran" 1 (Engine.step_count eng)

(* Property tests *)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Pqueue.create ~cmp:compare in
      List.iter (Pqueue.push h) xs;
      let rec drain acc =
        match Pqueue.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"stats mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine event order is deterministic" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 30) (int_bound 100))
    (fun delays ->
      let run_once () =
        let eng = Engine.create ~seed:7 () in
        let log = ref [] in
        List.iteri
          (fun i d ->
            ignore (Engine.schedule eng ~after:d (fun () -> log := i :: !log)))
          delays;
        Engine.run eng;
        !log
      in
      run_once () = run_once ())

(* Timer-wheel coverage: events spanning all three levels (l0 slots,
   l1 slots, heap overflow) must still fire in exact (time, seq)
   order, and lazy cancellation must not perturb step accounting. *)

let test_wheel_spans_levels () =
  let eng = Engine.create () in
  let log = ref [] in
  let delays =
    [
      Time.sec 2; 5; Time.ms 1; Time.us 50; Time.sec 1; 0;
      Time.ms 150; Time.us 8; Time.ms 3; Time.sec 30; Time.ms 150;
    ]
  in
  List.iteri
    (fun i d ->
      ignore
        (Engine.schedule eng ~after:d (fun () ->
             log := (i, Engine.now eng) :: !log)))
    delays;
  Engine.run eng;
  let fired = List.rev !log in
  let expect =
    List.mapi (fun i d -> (d, i)) delays
    |> List.sort compare
    |> List.map (fun (d, i) -> (i, d))
  in
  Alcotest.(check (list (pair int int))) "(index, time) in (time, seq) order"
    expect fired

let test_wheel_heavy_cancellation () =
  let eng = Engine.create () in
  let fired = ref 0 in
  let handles =
    Array.init 1000 (fun _ ->
        Engine.schedule eng ~after:(Time.ms 100) (fun () -> incr fired))
  in
  (* Cancelling 990 of 1000 crosses the sweep threshold (cancelled *
     2 > size), so the purge path runs too. *)
  Array.iteri (fun i h -> if i mod 100 <> 0 then Engine.cancel h) handles;
  Engine.run eng;
  Alcotest.(check int) "only live timers fired" 10 !fired;
  Alcotest.(check int) "cancelled events not stepped" 10 (Engine.step_count eng)

let test_wheel_cancelled_accounting () =
  let w = Timer_wheel.create () in
  let g = Timer_wheel.make_group ~gid:0 ~label:"test" in
  let evs =
    List.init 10 (fun i ->
        Timer_wheel.schedule w ~time:(1000 * (i + 1)) ~seq:i ~group:g (fun () ->
            ()))
  in
  List.iteri (fun i e -> if i < 5 then Timer_wheel.cancel e) evs;
  (* Cancelling twice, or after the fact, must not double-count. *)
  List.iteri (fun i e -> if i < 5 then Timer_wheel.cancel e) evs;
  Alcotest.(check int) "cancelled pending" 5 (Timer_wheel.cancelled_pending w);
  Alcotest.(check int) "length includes cancelled" 10 (Timer_wheel.length w);
  let live = ref 0 in
  let rec drain () =
    match Timer_wheel.pop w with
    | None -> ()
    | Some e ->
        if not e.Timer_wheel.cancelled then incr live;
        Timer_wheel.cancel e;
        (* cancel after pop: no-op *)
        drain ()
  in
  drain ();
  Alcotest.(check int) "live events survived" 5 !live;
  Alcotest.(check int) "accounting drained" 0 (Timer_wheel.cancelled_pending w);
  Alcotest.(check bool) "empty" true (Timer_wheel.is_empty w)

(* ----- process groups: the crash-stop unit ----- *)

let test_cancel_group_kills_pending_timers () =
  let eng = Engine.create () in
  let g = Engine.create_group eng ~label:"victim" in
  let fired = ref 0 and root_fired = ref 0 in
  for i = 1 to 5 do
    ignore (Engine.schedule ~group:g eng ~after:(i * 10) (fun () -> incr fired))
  done;
  ignore (Engine.schedule eng ~after:25 (fun () -> Engine.cancel_group eng g));
  ignore (Engine.schedule eng ~after:100 (fun () -> incr root_fired));
  Engine.run eng;
  Alcotest.(check int) "events before the cancel ran" 2 !fired;
  Alcotest.(check int) "root group unaffected" 1 !root_fired;
  Alcotest.(check bool) "group dead" false (Engine.group_alive g)

let test_cancel_group_kills_blocked_process () =
  let eng = Engine.create () in
  let g = Engine.create_group eng ~label:"victim" in
  let ch = Channel.create () in
  let got = ref None in
  Engine.spawn ~group:g eng (fun () -> got := Some (Channel.recv eng ch));
  ignore (Engine.schedule eng ~after:10 (fun () -> Engine.cancel_group eng g));
  ignore (Engine.schedule eng ~after:20 (fun () -> Channel.send ch 42));
  Engine.run eng;
  Alcotest.(check bool) "blocked process never resumed" true (!got = None)

let test_schedule_into_dead_group_is_inert () =
  let eng = Engine.create () in
  let g = Engine.create_group eng ~label:"victim" in
  Engine.cancel_group eng g;
  let fired = ref false in
  ignore (Engine.schedule ~group:g eng ~after:5 (fun () -> fired := true));
  (* with_group makes the dead group current; scheduling inherits it. *)
  Engine.with_group eng g (fun () ->
      ignore (Engine.schedule eng ~after:5 (fun () -> fired := true)));
  Engine.run eng;
  Alcotest.(check bool) "stillborn events" false !fired

let test_group_inheritance_and_accounting () =
  let eng = Engine.create () in
  let g = Engine.create_group eng ~label:"child" in
  let seen = ref [] in
  Engine.spawn ~group:g eng (fun () ->
      seen := Engine.group_label (Engine.current_group eng) :: !seen;
      (* A process spawned without an explicit group inherits its
         parent's, even across a sleep. *)
      Engine.spawn eng (fun () ->
          Engine.sleep eng 10;
          seen := Engine.group_label (Engine.current_group eng) :: !seen));
  Engine.run eng;
  Alcotest.(check (list string)) "inherited group" [ "child"; "child" ]
    (List.rev !seen);
  Alcotest.(check bool) "events accounted to the group" true
    (Engine.group_events g >= 2);
  Alcotest.(check string) "root is current outside events" "root"
    (Engine.group_label (Engine.current_group eng))

let prop_pqueue_compact =
  QCheck.Test.make ~name:"pqueue compact matches filtered sorted model"
    ~count:200
    QCheck.(list int)
    (fun xs ->
      let keep x = x land 1 = 0 in
      let h = Pqueue.create ~cmp:compare in
      List.iter (Pqueue.push h) xs;
      Pqueue.compact h ~keep;
      let rec drain acc =
        match Pqueue.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare (List.filter keep xs))

let prop_wheel_nested_scheduling =
  QCheck.Test.make
    ~name:"wheel time monotonic under nested cross-level scheduling" ~count:30
    QCheck.(pair (int_range 1 6) (int_range 1 120))
    (fun (chains, hops) ->
      let eng = Engine.create () in
      let last = ref (-1) in
      let mono = ref true in
      let count = ref 0 in
      let rec hop c k =
        let now = Engine.now eng in
        if now < !last then mono := false;
        last := now;
        incr count;
        if k > 0 then begin
          (* Deterministic pseudo-random delay; the mask alternates so
             hops land in l0, l1 and the overflow heap. *)
          let mask =
            match k mod 3 with 0 -> 0x3FFFFFFF | 1 -> 0xFFFFF | _ -> 0xFFF
          in
          let d = ((c * 7919) + (k * 104729)) * 2654435761 land mask in
          ignore (Engine.schedule eng ~after:d (fun () -> hop c (k - 1)))
        end
      in
      for c = 1 to chains do
        ignore (Engine.schedule eng ~after:c (fun () -> hop c hops))
      done;
      Engine.run eng;
      !mono && !count = chains * (hops + 1))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "sim",
    [
      tc "clock starts at zero" test_clock_starts_at_zero;
      tc "events fire in time order" test_schedule_order;
      tc "same-time events fire fifo" test_same_time_fifo;
      tc "cancelled events do not fire" test_cancel;
      tc "clock advances to event time" test_clock_advances;
      tc "run ~until stops early" test_run_until;
      tc "sleep advances process" test_sleep_sequence;
      tc "process exception propagates" test_spawn_exception_propagates;
      tc "two processes interleave" test_two_processes_interleave;
      tc "ivar read blocks until fill" test_ivar_blocks_until_filled;
      tc "ivar read of full ivar" test_ivar_already_full;
      tc "ivar double fill" test_ivar_double_fill_raises;
      tc "ivar wakes all readers" test_ivar_multiple_readers;
      tc "channel is fifo" test_channel_fifo;
      tc "channel recv blocks" test_channel_blocking_recv;
      tc "channel recv_timeout expires" test_channel_recv_timeout_expires;
      tc "channel recv_timeout receives" test_channel_recv_timeout_receives;
      tc "channel timeout does not eat wakeups"
        test_channel_timeout_does_not_eat_wakeup;
      tc "resource serialises fifo" test_resource_exclusive;
      tc "resource tracks busy time" test_resource_busy_time;
      tc "resource release unheld" test_resource_release_unheld_raises;
      tc "trace sums by layer" test_trace_by_layer;
      tc "trace disabled is silent" test_trace_disabled_records_nothing;
      tc "stats basics" test_stats_basics;
      tc "stats empty" test_stats_empty;
      tc "time conversions" test_time_conversions;
      tc "suspend resume is one-shot" test_suspend_resume_is_one_shot;
      tc "step count advances" test_step_count_advances;
      tc "cancelled events not counted" test_cancelled_events_not_counted;
      tc "timer wheel spans all levels" test_wheel_spans_levels;
      tc "timer wheel heavy cancellation" test_wheel_heavy_cancellation;
      tc "timer wheel cancel accounting" test_wheel_cancelled_accounting;
      tc "cancel_group kills pending timers" test_cancel_group_kills_pending_timers;
      tc "cancel_group kills blocked process"
        test_cancel_group_kills_blocked_process;
      tc "schedule into dead group is inert" test_schedule_into_dead_group_is_inert;
      tc "group inheritance and accounting" test_group_inheritance_and_accounting;
      QCheck_alcotest.to_alcotest prop_pqueue_sorted;
      QCheck_alcotest.to_alcotest prop_pqueue_compact;
      QCheck_alcotest.to_alcotest prop_wheel_nested_scheduling;
      QCheck_alcotest.to_alcotest prop_stats_mean_matches_naive;
      QCheck_alcotest.to_alcotest prop_engine_deterministic;
    ] )
