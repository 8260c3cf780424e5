(* Workload inputs, generated from the seed and written as files: DDL,
   integration session script, instance data, plus the request decks
   the load generator replays.  The daemons only ever see these files
   and frames; nothing about the seed reaches them. *)

module Prng = Workload.Prng
module St = Instance.Store
module V = Instance.Value

type files = { ddl : string; script : string; data : string }

let frame ?view ?text op = Server.Wire.request_to_line ?view ?text op

(* ---- the paper federation ------------------------------------------ *)

(* The worked example of the paper (sc1 of Figure 3, sc2 of Figure 4):
   these directives integrate them into Figure 5, whose classes the
   global frames below name. *)
let paper_script =
  String.concat "\n"
    [
      "equiv sc1.Student.Name sc2.Grad_student.Name";
      "equiv sc1.Student.GPA sc2.Grad_student.GPA";
      "equiv sc1.Student.Name sc2.Faculty.Name";
      "equiv sc1.Department.Name sc2.Department.Name";
      "equiv sc1.Majors.Since sc2.Major_in.Since";
      "object sc1.Department 1 sc2.Department";
      "object sc1.Student 3 sc2.Grad_student";
      "object sc1.Student 5 sc2.Faculty";
      "rel sc1.Majors 1 sc2.Major_in";
      "name sc1.Majors sc2.Major_in E_Stud_Majo";
      "";
    ]

let departments = [| "CS"; "EE"; "ME"; "MA"; "PH"; "BI" |]
let ranks = [| "Prof"; "Assoc"; "Asst"; "Lect" |]
let population = 64
let grad_students = 24
let faculty = 12

(* Keys of the write stream live apart from the seeded population. *)
let write_keys = 1024
let key_name k = Printf.sprintf "w%04d" k

(* Under the stream's insert / 60% modify / 40% delete rule a key is
   present with probability p = 1 / 1.4 in the long run; seeding the
   key space at that density starts the run in the stationary state. *)
let stationary_present = 1. /. 1.4

let gpa g = 2.0 +. (float_of_int (Prng.int g 21) /. 10.)

type paper = {
  students : (string * float) array;  (** the seeded sc1 population *)
  faculty_names : string array;
  present : bool array;  (** write keys present at start (write workloads) *)
  key_gpa : float array;
}

let paper_population ~seed ~with_keys =
  let g = Prng.create (seed * 7919) in
  let letter () = Char.chr (Char.code 'a' + Prng.int g 26) in
  let name i = Printf.sprintf "%c%c%c%02d" (letter ()) (letter ()) (letter ()) i in
  let students = Array.init population (fun i -> (name i, gpa g)) in
  let faculty_names =
    Array.init faculty (fun i -> Printf.sprintf "f%c%c%02d" (letter ()) (letter ()) i)
  in
  let present =
    Array.init write_keys (fun _ -> with_keys && Prng.bool g stationary_present)
  in
  let key_gpa = Array.init write_keys (fun _ -> gpa g) in
  { students; faculty_names; present; key_gpa }

let paper_data ~seed (p : paper) =
  let g = Prng.create (seed * 104729) in
  let sc1 = Workload.Paper.sc1 and sc2 = Workload.Paper.sc2 in
  let n = Ecr.Name.v in
  let date () = V.date (2015 + Prng.int g 8) (1 + Prng.int g 12) (1 + Prng.int g 28) in
  let add_depts st =
    Array.fold_left
      (fun (st, acc) d ->
        let st, oid = St.insert (n "Department") (St.tuple [ ("Name", V.str d) ]) st in
        (st, oid :: acc))
      (st, []) departments
    |> fun (st, l) -> (st, Array.of_list (List.rev l))
  in
  let s1, d1 = add_depts (St.create sc1) in
  let s1 =
    Array.fold_left
      (fun st (name, g_) ->
        let st, oid =
          St.insert (n "Student")
            (St.tuple [ ("Name", V.str name); ("GPA", V.real g_) ])
            st
        in
        St.relate (n "Majors")
          [ oid; d1.(Prng.int g (Array.length d1)) ]
          (St.tuple [ ("Since", date ()) ])
          st)
      s1 p.students
  in
  let s1 = ref s1 in
  Array.iteri
    (fun k present ->
      if present then
        s1 :=
          fst
            (St.insert (n "Student")
               (St.tuple
                  [ ("Name", V.str (key_name k)); ("GPA", V.real p.key_gpa.(k)) ])
               !s1))
    p.present;
  let s2, d2 = add_depts (St.create sc2) in
  (* the first grad_students of the population are also sc2 grad
     students with the same name and GPA, so migration fuses them *)
  let s2 =
    Array.fold_left
      (fun st (name, g_) ->
        let st, oid =
          St.insert (n "Grad_student")
            (St.tuple
               [
                 ("Name", V.str name);
                 ("GPA", V.real g_);
                 ("Support_type", V.str (if Prng.bool g 0.5 then "RA" else "TA"));
               ])
            st
        in
        St.relate (n "Major_in")
          [ oid; d2.(Prng.int g (Array.length d2)) ]
          (St.tuple [ ("Since", date ()) ])
          st)
      s2
      (Array.sub p.students 0 grad_students)
  in
  let s2 =
    Array.fold_left
      (fun st name ->
        let st, oid =
          St.insert (n "Faculty")
            (St.tuple
               [
                 ("Name", V.str name);
                 ("Rank", V.str ranks.(Prng.int g (Array.length ranks)));
               ])
            st
        in
        St.relate (n "Works") [ oid; d2.(Prng.int g (Array.length d2)) ] (St.tuple []) st)
      s2 p.faculty_names
  in
  Instance.Loader.to_string sc1 !s1 ^ "\n" ^ Instance.Loader.to_string sc2 s2

let write_paper_files ~dir ~seed p =
  let files =
    {
      ddl = Filename.concat dir "paper.ecr";
      script = Filename.concat dir "paper.sit";
      data = Filename.concat dir "paper.ecd";
    }
  in
  Ddl.Printer.save files.ddl [ Workload.Paper.sc1; Workload.Paper.sc2 ];
  Util.write_file files.script paper_script;
  Util.write_file files.data (paper_data ~seed p);
  files

(* ---- view-point: 48 light read frames ------------------------------ *)

(* Twelve templates over sc1, sc2, the integrated schema and the rewrite
   op, four seeded instances each: point lookups and narrow ranges, so
   a request's own work stays at tens of microseconds. *)
let view_point_deck ~seed (p : paper) =
  let g = Prng.create (seed * 31337) in
  let student () = fst p.students.(Prng.int g population) in
  let grad () = fst p.students.(Prng.int g grad_students) in
  let fac () = p.faculty_names.(Prng.int g faculty) in
  let dept () = departments.(Prng.int g (Array.length departments)) in
  let hi () = 3.5 +. (float_of_int (Prng.int g 5) /. 10.) in
  let sc1 t = frame ~view:"sc1" ~text:t "query" in
  let sc2 t = frame ~view:"sc2" ~text:t "query" in
  let glob t = frame ~text:t "query" in
  let templates =
    [
      (fun () -> sc1 (Printf.sprintf "select Name, GPA from Student where Name = '%s'" (student ())));
      (fun () -> sc1 (Printf.sprintf "select Name from Student where GPA >= %.1f" (hi ())));
      (fun () ->
        sc1
          (Printf.sprintf
             "select Name from Student via Majors to Department select Name target where Name = '%s'"
             (dept ())));
      (fun () -> sc2 (Printf.sprintf "select Name, Rank from Faculty where Name = '%s'" (fac ())));
      (fun () ->
        sc2 (Printf.sprintf "select Name, Support_type from Grad_student where Name = '%s'" (grad ())));
      (fun () -> sc2 (Printf.sprintf "select * from Department where Name = '%s'" (dept ())));
      (fun () ->
        glob (Printf.sprintf "select D_Name, D_GPA from Student where D_Name = '%s'" (student ())));
      (fun () ->
        glob
          (Printf.sprintf "select D_Name from D_Stud_Facu where D_Name = '%s'"
             (if Prng.bool g 0.5 then student () else fac ())));
      (fun () -> glob (Printf.sprintf "select * from E_Department where D_Name = '%s'" (dept ())));
      (fun () ->
        glob
          (Printf.sprintf "select D_Name from Faculty where Rank = '%s' and D_Name = '%s'"
             ranks.(Prng.int g (Array.length ranks))
             (fac ())));
      (fun () ->
        frame ~view:"sc1"
          ~text:(Printf.sprintf "select Name, GPA from Student where GPA >= %.1f" (hi ()))
          "rewrite");
      (fun () ->
        frame
          ~text:(Printf.sprintf "select * from Student where D_GPA >= %.1f" (hi ()))
          "rewrite");
    ]
  in
  (* distinct frames: redraw a template instance that repeats one *)
  let seen = Hashtbl.create 64 in
  let rec fresh mk tries =
    let f = mk () in
    if Hashtbl.mem seen f && tries > 0 then fresh mk (tries - 1)
    else begin
      Hashtbl.replace seen f ();
      f
    end
  in
  let deck = List.concat_map (fun mk -> List.init 4 (fun _ -> fresh mk 50)) templates in
  Array.of_list (List.sort_uniq compare deck)

(* ---- write workloads: views, read deck, write stream --------------- *)

(* An eager and a lazy view over the written class.  Both are narrow
   GPA bands, so maintenance (delta append, recompute, lazy refresh)
   scans the whole Student extent while the answers stay small. *)
let write_views =
  [
    ("honors", "eager", "select Name, GPA from Student where GPA >= 3.8");
    ("probation", "lazy", "select Name, GPA from Student where GPA < 2.2");
  ]

let define_frame (name, policy, q) =
  Server.Wire.request_to_line ~view:name ~base:"sc1" ~policy ~text:q "define_view"

(* Reads that ride beside the write stream: materialized reads of both
   views, ad-hoc queries with the views' shapes (served from the
   extents), point reads of written keys through sc1 and through the
   integrated schema, and rewrites. *)
let write_read_deck ~seed =
  let g = Prng.create (seed * 6007) in
  let key () = key_name (Prng.int g write_keys) in
  let mat = List.map (fun (v, _, _) -> frame ~view:v "query") write_views in
  let same_shape = List.map (fun (_, _, q) -> frame ~view:"sc1" ~text:q "query") write_views in
  let points =
    List.init 6 (fun _ ->
        frame ~view:"sc1"
          ~text:(Printf.sprintf "select Name, GPA from Student where Name = '%s'" (key ()))
          "query")
  in
  let globals =
    List.init 4 (fun _ ->
        frame
          ~text:(Printf.sprintf "select D_Name, D_GPA from Student where D_Name = '%s'" (key ()))
          "query")
  in
  let rewrites =
    [
      frame ~view:"sc1" ~text:"select Name, GPA from Student where GPA >= 3.0" "rewrite";
      frame ~text:"select D_Name from Student where D_GPA < 2.5" "rewrite";
    ]
  in
  Array.of_list (List.sort_uniq compare (mat @ same_shape @ points @ globals @ rewrites))

(* The ordered write stream over the fixed key space: insert a key that
   is absent, otherwise modify it (60%) or delete it (40%).  The writer
   tracks presence itself, so every write affects exactly one entity. *)
type writer = { wg : Prng.t; present : bool array }

let writer ~seed (p : paper) = { wg = Prng.create (seed * 4409); present = Array.copy p.present }

let next_write w =
  let k = Prng.int w.wg write_keys in
  let name = key_name k in
  let text =
    if not w.present.(k) then begin
      w.present.(k) <- true;
      Printf.sprintf "insert into Student { Name = '%s', GPA = %.1f }" name (gpa w.wg)
    end
    else if Prng.bool w.wg 0.6 then
      Printf.sprintf "update Student set GPA = %.1f where Name = '%s'" (gpa w.wg) name
    else begin
      w.present.(k) <- false;
      Printf.sprintf "delete from Student where Name = '%s'" name
    end
  in
  frame ~view:"sc1" ~text "update"

(* What the end-of-run checks compare: every view extent and the whole
   written class, through sc1 and through the integrated schema. *)
let write_final_probes =
  List.map (fun (v, _, _) -> frame ~view:v "query") write_views
  @ [
      frame ~view:"sc1" ~text:"select Name, GPA from Student" "query";
      frame ~text:"select * from Student" "query";
    ]

(* ---- federation-read: a Workload.Scenario federation --------------- *)

(* The federation itself is the scenario generator's universe at one
   fixed seed, so what a read costs does not depend on the run's seed
   (federations drawn at different seeds differ twofold in it); the run
   seed orders the deck and draws the arrivals. *)
let scenario_seed = 42

let scenario_params =
  {
    Workload.Scenario.seed = scenario_seed;
    schemas = 8;
    concepts = 16;
    population = 200;
    views = 6;
    storm = 36;
    evolve = 9;
    rounds = 2;
  }

type federation = {
  fed_files : files;
  define : string list;  (** the scenario's define phase *)
  reads : string array;  (** {!Workload.Scenario.read_frames} *)
}

let federation ~dir =
  let scn = Workload.Scenario.generate scenario_params in
  let f = Workload.Scenario.write_files ~dir scn in
  let define =
    match scn.Workload.Scenario.schedule with
    | ph :: _ -> ph.Workload.Scenario.frames
    | [] -> []
  in
  {
    fed_files = { ddl = f.Workload.Scenario.ddl; script = f.script; data = f.data };
    define;
    reads = Array.of_list (Workload.Scenario.read_frames scn);
  }
